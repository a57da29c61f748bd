"""The one test executor of the thread tests: a one-worker pool that keeps
every future it hands out and sleeps before each task, so a task is still
pending when the thread that handed it moves on (or raises)."""

from __future__ import annotations

import functools
import time
from concurrent.futures import ThreadPoolExecutor


class RecordingHelper(ThreadPoolExecutor):
    """One worker; ``futures`` holds every submitted task's future, in
    order; each task sleeps ``delay`` seconds before it runs."""

    def __init__(self, delay=0.0):
        super().__init__(max_workers=1)
        self.futures, self.delay = [], delay

    def submit(self, fn, /, *args, **kwargs):
        def slow():
            time.sleep(self.delay)
            return fn(*args, **kwargs)

        self.futures.append(super().submit(slow))
        return self.futures[-1]


# A draw the sampler hands it is still running when the step after it raises.
SlowHelper = functools.partial(RecordingHelper, delay=0.005)
