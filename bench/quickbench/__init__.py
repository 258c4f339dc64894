"""End-to-end benchmark of the QuickNN reproduction.

The package behind ``bench/run.py``: seeded inputs (:mod:`.inputs`), a
single-thread open-loop load generator (:mod:`.loadgen`), an oracle
independent of the code under test (:mod:`.oracle`), the four workloads
(:mod:`.workloads`), and the traced per-layer breakdown
(:mod:`.tracing`).  :mod:`.catalog` names every metric it emits.

Importing this package imports nothing from the program under test;
:func:`.common.bootstrap` puts the checkout's ``src/`` on ``sys.path``
first, so the benchmark always measures the code next to it.
"""
