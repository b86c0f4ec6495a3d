"""Set-up every nilcert command pays: import, shipped data, catalog.

Run as a script it prints one line once ready, so a parent process can time
process start to ready; ``run.py`` starts it several times per run.
"""

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def import_nilcert():
    """Import the package from the checkout's ``src``, never from elsewhere."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import nilcert
    if not os.path.abspath(nilcert.__file__).startswith(SRC + os.sep):
        raise ImportError(f"nilcert imported from {nilcert.__file__}, not {SRC}")
    return nilcert


def ready():
    import_nilcert()
    from nilcert import catalog, files

    files.load_all_witnesses()
    files.load_shipped_claims()
    files.load_reference_edges()
    for name in files.algebra_file_names():
        files.load_shipped_algebra(name)
    # builds every catalog entry and its fingerprint (derivation dimension,
    # power dimensions, annihilator)
    catalog.fingerprint_collisions()


if __name__ == "__main__":
    ready()
    print("ready", flush=True)
