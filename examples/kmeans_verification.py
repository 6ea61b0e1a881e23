"""Verify the k-means fragments of §2.3 (Fig. 4) with Flux and with the
Prusti-style baseline, and compare the annotation burden.

Run with:  python examples/kmeans_verification.py
"""

from repro.bench.programs import KMEANS_FLUX, KMEANS_PRUSTI
from repro.prusti import verify_source_prusti
from repro.service import verify_source


def main() -> None:
    print("== Flux: signatures only, loop invariants inferred ==")
    flux_result = verify_source(KMEANS_FLUX)
    print(flux_result.summary())

    print()
    print("== Prusti-style baseline: contracts + manual body_invariant! ==")
    prusti_result = verify_source_prusti(KMEANS_PRUSTI)
    for fn in prusti_result.functions:
        status = "ok" if fn.ok else "ERROR"
        print(
            f"{fn.name:25s} {status:6s} {fn.time:6.2f}s "
            f"specs={fn.spec_lines} invariants={fn.invariant_lines}"
        )

    invariant_lines = sum(fn.invariant_lines for fn in prusti_result.functions)
    print()
    print(f"Flux loop-invariant annotations:   0")
    print(f"Prusti loop-invariant annotations: {invariant_lines}")
    print(f"Flux total time:   {flux_result.time:.2f}s")
    print(f"Prusti total time: {prusti_result.time:.2f}s")


if __name__ == "__main__":
    main()
