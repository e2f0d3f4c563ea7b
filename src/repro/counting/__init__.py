"""Model counting back-ends.

MCML reduces every whole-input-space metric to model counting.  The paper
uses two external tools; we implement both natively — they are the two
backends ``mcml --backend`` chooses between — plus the counters used as
test oracles:

* :mod:`repro.counting.exact` — exact counting in the ProjMC/sharpSAT
  tradition: DPLL search with unit propagation, connected-component
  decomposition and component caching.  This is the default backend.
* :mod:`repro.counting.approxmc` — ApproxMC2-style (ε, δ) approximate
  counting with random XOR hash constraints and bounded cell enumeration.
* :mod:`repro.counting.brute` — numpy-vectorised exhaustive counting of
  auxiliary-free CNFs for small variable counts; the ground truth for
  differential tests.
* :mod:`repro.counting.vector` — the same sweep over formulas
  (:func:`count_formula`), with no CNF conversion; an oracle that shares
  no code with Tseitin, and BNN quantification's counter.
* :mod:`repro.counting.oracles` — closed-form combinatorial counts for the
  16 relational properties (Bell numbers, labeled posets, …), used to check
  Table 1 at paper scopes without running a counter.
* :mod:`repro.counting.legacy` — the tuple-based predecessor of the packed
  exact counter, kept as a differential baseline.
* :mod:`repro.counting.api` — the typed counting contract: the frozen
  :class:`CountResult`, the :class:`Capabilities` declaration every
  backend carries, the :class:`CounterBackend` protocol, the two backend
  names (:func:`available_backends`) and ``make_counter``, which builds
  one with a run's seed and count limits.
* :mod:`repro.counting.engine` — :class:`CountingEngine`, the shared,
  memoizing facade AccMC/DiffMC and the experiment drivers count through
  (optionally over a ``cache_dir``); ``solve``/``solve_many`` take CNFs
  and return typed :class:`CountResult`\\ s.
* :mod:`repro.counting.component_cache` — :class:`ComponentCache`, the
  bounded LRU of counted components the exact counter owns; it persists
  across counting calls, so every problem an engine counts shares it.
* :mod:`repro.counting.store` — the disk tiers, all subclasses of one
  ``_SqliteStore`` base: :class:`CountStore` (whole counts keyed on
  canonical CNF signatures), :class:`BlobStore` (compilation memos) and
  :class:`ComponentStore` (the component-cache spill).
* :mod:`repro.counting.faults` — the fault-injection harness the chaos
  suites drive the robustness layer with (corrupt stores, full disks).

Failure taxonomy: :class:`CounterAbort` is the base of the cooperative
resource aborts (:class:`CounterBudgetExceeded` for node budgets,
:class:`CounterTimeout` for wall-clock deadlines), which a backend raises
past the limits set on it once, when it is built;
:class:`CountFailure` is the engine-level typed outcome a failed batch
problem becomes.
"""

from repro.counting.api import (
    Capabilities,
    CountFailure,
    CountResult,
    CounterBackend,
    EngineStats,
    available_backends,
    backend_capabilities,
)
from repro.counting.approxmc import ApproxMCCounter, approx_count
from repro.counting.brute import brute_force_count, brute_force_models
from repro.counting.component_cache import ComponentCache
from repro.counting.engine import CountingEngine
from repro.counting.exact import (
    CounterAbort,
    CounterBudgetExceeded,
    CounterTimeout,
    ExactCounter,
    exact_count,
)
from repro.counting.legacy import LegacyExactCounter
from repro.counting.oracles import closed_form_count
from repro.counting.store import (
    BlobStore,
    ComponentStore,
    CountStore,
    signature_key,
    text_key,
)
from repro.counting.vector import count_formula

__all__ = [
    "ApproxMCCounter",
    "BlobStore",
    "Capabilities",
    "ComponentCache",
    "ComponentStore",
    "CountFailure",
    "CountResult",
    "CountStore",
    "CounterAbort",
    "CounterBackend",
    "CounterBudgetExceeded",
    "CounterTimeout",
    "CountingEngine",
    "EngineStats",
    "ExactCounter",
    "LegacyExactCounter",
    "approx_count",
    "available_backends",
    "backend_capabilities",
    "brute_force_count",
    "brute_force_models",
    "closed_form_count",
    "count_formula",
    "exact_count",
    "signature_key",
    "text_key",
]
