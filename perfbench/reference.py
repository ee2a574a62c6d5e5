"""Host-speed reference: a fixed pure-Python loop, run as its own process.

    python3 perfbench/reference.py

It imports nothing from rwig, so no change to the program moves its time.
``run.py`` runs it before and after every timed process and expresses the
timed wall time at a nominal reference time (see README.md, Noise).  It
exits with code 1 if the loop's sum is wrong.
"""

ITERATIONS = 1_600_000
EXPECTED = 3_199_999

total = 0
for i in range(ITERATIONS):
    total += i * i % 7
raise SystemExit(0 if total == EXPECTED else 1)
