"""Whole-program semantic analyzer for the simulator.

The lint pass (:mod:`repro.analysis.lint`) checks one line at a time;
the passes here understand the *simulator's* semantics across modules:

* :mod:`repro.analysis.semantic.domains` — cycle-domain dataflow
  (SEM001–SEM003): CPU cycles, DRAM command-clock cycles, nanoseconds
  and dimensionless counts must never mix without a sanctioned cast.
* :mod:`repro.analysis.semantic.detcov` — det-state coverage audit
  (SEM010): every mutable field on a simulator class must be folded
  into the determinism hash-chain or explicitly allowlisted.
* :mod:`repro.analysis.semantic.contract` — scheduler contract
  verification (SEM020–SEM022): an age/starvation *ordering* on every
  issue path, no direct bank/bus mutation, required overrides present.
* :mod:`repro.analysis.semantic.effects` — interprocedural
  effect/purity inference (SEM030–SEM031): the certified-pure hooks
  the fast engine's skip decisions rest on must stay pure, and RNG/IO
  must not reach per-cycle model code.
* :mod:`repro.analysis.semantic.concurrency` — process-safety
  contract (CONC001–CONC005): no fork-shared mutable globals, no
  fork-captured resources, all shared-artifact writes through
  :mod:`repro.util.atomicio`, a pickle-clean ``RunSpec``/``SimResult``
  surface, and no post-fork ``os.environ`` reads outside sanctioned
  accessors.

Shared infrastructure — the module graph loader
(:mod:`~repro.analysis.semantic.modgraph`), per-function CFG builder
(:mod:`~repro.analysis.semantic.cfg`) and fixpoint dataflow engine
(:mod:`~repro.analysis.semantic.dataflow`) — is reusable by future
passes.

CLI: ``python -m repro analyze [paths...] [--concurrency]``.
"""

from repro.analysis.semantic.driver import (  # noqa: F401
    AnalysisReport,
    CONCURRENCY_RULES,
    SEMANTIC_RULES,
    analyze_paths,
    analyze_source,
    main,
)
