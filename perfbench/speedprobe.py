"""Machine-speed probe: a fixed piece of work that does not use the program.

The benchmark runs it as a child process between the program's commands
and times it the same way. Its mix follows what a CLI command does:
interpreter start, the numpy import, memory-bound array work (a random
gather over 32 MB and a sort) and a plain Python loop. On a shared host
its time tracks the speed the program's commands see at the time, so a
run's median probe time tells how fast the machine was during that run.
"""

import numpy as np

rng = np.random.default_rng(0)
big = rng.random(4_000_000)
idx = rng.integers(0, big.size, 1_000_000)
total = sum(float(big[idx].sum()) for _ in range(2))
total += float(np.sort(rng.random(1_000_000))[500_000])
acc = 0
for i in range(100_000):
    acc += i * i % 7
print(f"{total:.6f} {acc}")
