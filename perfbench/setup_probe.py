"""One workload's set-up in a fresh interpreter, timed from outside for the
`setup_s` metric: the imports, then the fan loads and validation, spanning
trees and bundle loads the workload starts from.

    PYTHONPATH=src python3 perfbench/setup_probe.py WORKLOAD
"""

import sys

import workloads

workloads.WORKLOADS[sys.argv[1]].load()
