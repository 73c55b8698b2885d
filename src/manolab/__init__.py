"""manolab: a desk-scale lab for manifold-normalized optimizers.

The package splits into small layers: ``tensor`` (float64 primitives
and a LAPACK SVD), ``manifold`` (unit-slice geometry), ``optimizers``
(Mano, Muon, AdamW, SGD-M, Riemannian SGD-M as pure step functions),
``convergence`` (rate experiments for the momentum-free update),
``training`` (a small MLP harness), ``diagnostics`` (spectra and
geodesic trails), and ``bench`` (a FLOP model and timings); ``cli``
is the ``manolab`` command.

This module exports nothing: import each name from the module that
defines it, e.g. ``from manolab.optimizers import mano_step`` or
``from manolab.training import TrainConfig, Trainer``.
"""
