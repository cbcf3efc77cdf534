"""Wall-clock training benchmark for the GRACE reproduction.

``python3 perfbench/run.py --workload <name>`` trains one fixed workload
through the program's public entry points, checks the outputs and
prints its metrics; see ``perfbench/README.md``.
"""
