import gc
import sys

# numpy.random imports secrets, secrets imports hmac, and hmac imports
# _hashlib, which loads OpenSSL's libcrypto, yet mclock hashes nothing. With
# _hashlib absent, hashlib and hmac take the fallback of Python builds without
# OpenSSL: the built-in _sha256, _sha512, _blake2 and so on, and _operator's
# compare_digest. The PCG64 draws do not change. On a 2-vCPU host `sample`'s
# peak RSS went 35.7 -> 32.2 MB (fresh processes, medians of 15). setdefault
# keeps a _hashlib that site or a caller has loaded already, and only this
# entry module blocks it, so a program that imports mclock or mclock.cli keeps
# OpenSSL.
sys.modules.setdefault("_hashlib", None)

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
