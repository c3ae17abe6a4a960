"""Corrections of measured times for a shared machine.

A shared host disturbs this machine's virtual CPUs in two ways the
program does not control. It takes a virtual CPU away for a while (the
kernel counts that time as "steal" in /proc/stat), and the speed of each
virtual CPU drifts by tens of percent within seconds. The benchmark
takes the stolen time out of each wall time (stolen_s). For CPU-bound
work it also times a fixed pure-Python loop while it measures and scales
each measured time by the speed the machine had meanwhile. While a CLI
process runs, a background thread of the otherwise idle benchmark process
times the loop every 20 ms on each CPU that one of the CLI's threads is
running on (about 2% of that CPU); a loop timed on another CPU tracks the
CLI's speed poorly. Around work done in the benchmark process itself the
loop is timed just before, on the CPU the work runs on. A speed of 1.0
means the loop takes REFERENCE_S.
"""

import os
import statistics
import threading
import time

REFERENCE_S = 3.0e-4
INTERVAL_S = 0.02
TICKS_PER_S = os.sysconf("SC_CLK_TCK")


def stolen_s():
    """Seconds the host has taken from each of this machine's CPUs since
    boot, by CPU; empty where the kernel does not count them."""
    stolen = {}
    try:
        with open("/proc/stat", encoding="ascii") as f:
            for line in f:
                # cpuN user nice system idle iowait irq softirq steal ...
                fields = line.split()
                if fields[0].startswith("cpu") and fields[0] != "cpu":
                    stolen[fields[0]] = int(fields[8]) / TICKS_PER_S
    except (OSError, IndexError, ValueError):
        return {}
    return stolen


def stolen_between(before, after):
    """Seconds the host took from each CPU between two readings of
    stolen_s."""
    return [after[cpu] - before[cpu] for cpu in after if cpu in before]


def yardstick():
    """Seconds taken by the fixed loop."""
    started = time.perf_counter()
    table = {}
    total = 0
    for i in range(2000):
        total += i * i % 7
        table[i & 63] = total
    return time.perf_counter() - started


def speed_now(samples=9):
    return REFERENCE_S / statistics.median(
        yardstick() for _ in range(samples))


def _running_cpus(pid):
    """CPUs that threads of process `pid` are running on, or else the
    CPU its main thread ran on last; empty once it has been reaped."""
    cpus = set()
    last = None
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/stat", encoding="ascii") as f:
                # after the command name: state is field 3, processor 39
                fields = f.read().rsplit(")", 1)[1].split()
            if task == str(pid):
                last = int(fields[36])
            if fields[0] == "R":
                cpus.add(int(fields[36]))
    except (OSError, IndexError, ValueError):
        pass
    if not cpus and last is not None:
        cpus.add(last)
    return cpus


class SpeedSampler:
    """Times the yardstick on the CPUs of process `pid` in a background
    thread while in a with-block."""

    def __init__(self, pid):
        self.pid = pid

    def __enter__(self):
        self._times = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def _run(self):
        while not self._stop.wait(INTERVAL_S):
            for cpu in _running_cpus(self.pid):
                try:
                    os.sched_setaffinity(0, {cpu})   # this thread only
                except OSError:
                    continue
                self._times.append(yardstick())

    def __exit__(self, *exc_info):
        self._stop.set()
        self._thread.join()

    def speed(self):
        if not self._times:
            return speed_now()
        return REFERENCE_S / statistics.median(self._times)
