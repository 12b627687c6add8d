"""Request scripts for the ``serve-lossy`` workload.

A script drives one ``hansim serve --manual`` daemon for one run. It is
a function of the seed and the run length only. Simulated time moves in
ticks: every tick ends with ``ADVANCE 30`` (30 rounds of 2 s, one
simulated minute). The traffic is taken from sources, not tuned:

* ``INJECT arrive:DEV@Tus``: Poisson arrivals at the paper's high rate
  (30 per hour over the home's 26 devices, ``ArrivalRate::High``);
* ``INJECT down:N@Tus; up:N@Tus``: the node churn of the resilience
  plan in the repository's perf harness (``crates/bench``): one node
  down at 1/6 of the scripted window and back at 1/2 of it;
* ``INJECT cap:KW@Tus``: the five feeder caps of that harness's
  re-plan probe (8, 6, 9, 5, 7 kW, 20 rounds apart from mid-window),
  then the cap lifted; each change invalidates the planner's memo;
* ``CHECKPOINT PATH`` every ``CHECKPOINT_EVERY`` ticks;
* ``STATUS`` queries, which fill the rest of the request budget.

``STATUS`` fills the request budget of ``RATE`` requests per wall
second, which keeps the daemon's loop busy: at 50 requests/s it sleeps
2 ms between requests, and its 90th percentile (22-28 ms on a 2-vCPU
virtual machine) was set by the host's wake-up latency, not by the
daemon. Writes are therefore a small share (about 460 of 15,000
requests at 30 s), and the benchmark reports the latency of
``ADVANCE``, the write that runs CP rounds and the planner, on its own.

The script ends with ``CHECKPOINT PATH`` and a final ``STATUS``, so the last snapshot holds exactly the state the final
digest describes.

Every injected event lies strictly after the daemon's simulated clock
when it arrives, and inside the 350-minute window, so no ``ERR`` reply
is self-inflicted. Send times form a Poisson process at ``RATE``
requests per wall second (uniform order statistics over the run).
"""

import random

RATE = 500  # requests per wall second
TICKS = 300  # simulated minutes advanced per run
ROUNDS_PER_TICK = 30
ROUND_US = 2_000_000
TICK_US = ROUNDS_PER_TICK * ROUND_US
HORIZON_US = 350 * 60_000_000  # the daemon's simulated window
DEVICES = 26
ARRIVALS_PER_TICK = 30 / 60  # the paper's high rate, per simulated minute
REPLAN_CAPS = ("8", "6", "9", "5", "7", "none")  # kW; "none" lifts the cap
CAP_SPACING_US = 20 * ROUND_US
CHECKPOINT_EVERY = 50  # ticks


def _poisson(rng, mean):
    """Knuth's Poisson sampler (small means only)."""
    limit, k, p = pow(2.718281828459045, -mean), 0, 1.0
    while True:
        p *= rng.random()
        if p <= limit:
            return k
        k += 1


def _tick_of(at_us):
    """The tick whose requests may inject an event at ``at_us``: the
    last one that starts strictly before it."""
    return (at_us - 1) // TICK_US


def make_script(seed, seconds, checkpoint_path, ticks=TICKS):
    """The run's requests as ``(due_us, line)`` pairs, due-ordered."""
    rng = random.Random(f"perfbench/serve-lossy/{seed}")
    blocks = []
    for k in range(ticks):
        now = k * TICK_US
        events = []
        for _ in range(_poisson(rng, ARRIVALS_PER_TICK)):
            device = rng.randrange(DEVICES)
            events.append(f"INJECT arrive:{device}@{now + rng.randint(1, TICK_US)}us")
        blocks.append(events)

    window_us = ticks * TICK_US
    node = rng.randrange(DEVICES)
    down, up = window_us // 6, window_us // 2
    blocks[_tick_of(down)].append(f"INJECT down:{node}@{down}us; up:{node}@{up}us")
    for j, cap in enumerate(REPLAN_CAPS):
        at = window_us // 2 + j * CAP_SPACING_US
        blocks[_tick_of(at)].append(f"INJECT cap:{cap}@{at}us")

    fixed = sum(len(b) for b in blocks) + ticks + (ticks - 1) // CHECKPOINT_EVERY + 2
    total = max(round(RATE * seconds), fixed + ticks)
    statuses = total - fixed
    lines = []
    for k, events in enumerate(blocks):
        block = events + ["STATUS"] * (statuses // ticks + (k < statuses % ticks))
        rng.shuffle(block)
        lines.extend(block)
        if k and k % CHECKPOINT_EVERY == 0:
            lines.append(f"CHECKPOINT {checkpoint_path}")
        lines.append(f"ADVANCE {ROUNDS_PER_TICK}")
    lines.append(f"CHECKPOINT {checkpoint_path}")
    lines.append("STATUS")

    span_us = seconds * 1_000_000
    due = sorted(rng.randrange(span_us) for _ in lines)
    return list(zip(due, lines))


def write_script(path, script):
    with open(path, "w", encoding="utf-8") as f:
        for due, line in script:
            f.write(f"{due}\t{line}\n")


def verb(line):
    return line.split(None, 1)[0].upper()


def violations(script):
    """Requests that would earn an ``ERR`` through the script's own fault:
    an injected event at or before the daemon's clock, or after its
    window, or an ``ADVANCE`` past the window's end."""
    problems = []
    now = 0
    for index, (_, line) in enumerate(script):
        kind = verb(line)
        if kind == "ADVANCE":
            now += int(line.split()[1]) * ROUND_US
            if now > HORIZON_US:
                problems.append((index, "advances past the window"))
        elif kind == "INJECT":
            for entry in line.split(None, 1)[1].split(";"):
                at = int(entry.strip().rsplit("@", 1)[1].removesuffix("us"))
                if at <= now:
                    problems.append((index, f"event at {at} us is not after {now} us"))
                if at > HORIZON_US:
                    problems.append((index, f"event at {at} us is beyond the window"))
    return problems
