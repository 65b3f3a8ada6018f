import gc
import sys

from .cli import main

# Importing numpy and mclock leaves ~22,000 objects tracked by the cycle
# collector, and they live until the process ends. Every full collection walks
# them, and so do the collections the interpreter runs at exit: 20-40 ms of a
# 0.24-0.33 s command on a 2-vCPU host, where the exit alone took ~30 ms and
# takes ~9 ms frozen. Freezing moves them to the permanent generation, which no
# collection visits; collection stays enabled, so cycles a command creates are
# still freed. Only this entry module freezes, so a program that imports
# mclock or mclock.cli keeps its heap as it was.
gc.freeze()

if __name__ == "__main__":
    sys.exit(main())
