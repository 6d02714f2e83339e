"""FAST-001 clean: validated kernel entry points; unrelated heappush/append."""

from heapq import heappush


def hurry(env, fn, delay):
    env.schedule(delay, fn)
    env.schedule_at(env.now + delay, fn)
    env.schedule_lane(env.lane(), delay, fn)


def unrelated(backlog, item):
    # heappush onto a non-event-queue container is not a fast path.
    heappush(backlog, item)


def unrelated_append(planes, item):
    # append onto a container that is not a kernel lane is not one either.
    planes.append(item)
