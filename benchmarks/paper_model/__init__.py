"""The paper's machine-scale cost model, priced analytically.

The paper's Figs. 1 and 5-8 and Table I are PaRSEC runs on Frontier, Alps,
Leonardo and Summit, and its storage argument is archive arithmetic.  None
of that can be re-run here, so the ``bench_*.py`` modules and the
paper-model examples price it with this package, which the emulator
pipeline in ``src/repro`` never imports:

* :mod:`benchmarks.paper_model.machines` — the four systems' GPUs, nodes
  and node counts (Section IV-D);
* :mod:`benchmarks.paper_model.perf_model` — the calibrated analytic
  performance model of the tile Cholesky (Figs. 5-8, Table I);
* :mod:`benchmarks.paper_model.tasks` — the right-looking POTRF / TRSM /
  SYRK / GEMM task list PaRSEC would run, its tile-kernel flops, its
  sender- or receiver-side precision conversions (Section V-A) and its
  dependency analysis;
* :mod:`benchmarks.paper_model.complexity` — the emulator-design cost
  landscape (Fig. 1);
* :mod:`benchmarks.paper_model.archive` — raw-archive versus
  emulator-parameter storage and its dollar cost (Section I).

Run from the repository root with ``PYTHONPATH=src`` (the benches) or
``PYTHONPATH=src:.`` (the examples).
"""
