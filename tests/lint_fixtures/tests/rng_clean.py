"""RNG-001 clean twin in a test module: local generators only; the
global state is saved and restored, never drawn from."""

import random

import numpy as np


def test_local_streams():
    state = random.getstate()
    try:
        rng = random.Random(7)
        gen = np.random.default_rng(7)
        return rng.random() + gen.random()
    finally:
        random.setstate(state)
