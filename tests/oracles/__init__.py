"""Reference implementations the production paths are tested against.

Each oracle is the plain per-row / per-edge / dict-based version of an
algorithm ``src/`` computes one vectorised way:

- :mod:`tests.oracles.kernels` — one ``similarity_row`` call per user
  (:func:`repro.compute.build_kernel`);
- :mod:`tests.oracles.louvain` — the dict-of-dicts Louvain
  (:mod:`repro.community.louvain`);
- :mod:`tests.oracles.cluster_weights` — the per-edge exact-sum loop
  (:func:`repro.core.cluster_weights.cluster_item_averages`);
- :mod:`tests.oracles.sweep` — one fit per cell repeat and one
  ``recommend`` per user (:class:`repro.experiments.engine.SweepEngine`
  and the drivers built on it).
"""
