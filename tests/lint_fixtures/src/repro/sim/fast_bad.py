"""FAST-001 true positive: unvalidated pushes outside the allowlist."""

from heapq import heappush


def sneak(env, fn, delay):
    heappush(env._queue, (env._now + delay, 0, fn, ()))


def sneak_alias(env, fn, delay):
    queue = env._queue
    heappush(queue, (env._now + delay, 0, fn, ()))


def sneak_lane(env, fn, delay):
    lane = env.lane()
    lane.append((env._now + delay, 0, fn, ()))


def sneak_lane_alias(net, fn, delay):
    push = net._hop_lane.append
    push((net.env._now + delay, 0, fn, ()))
