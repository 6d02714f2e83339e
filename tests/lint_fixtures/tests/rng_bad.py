"""RNG-001 true positives in a test module: the process-global generators."""

import random
from random import shuffle

import numpy as np


def test_draws():
    random.seed(1)
    shuffle([1, 2])
    np.random.rand(3)
    return random.random()
