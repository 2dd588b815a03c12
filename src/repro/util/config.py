"""Typed, validated run configuration.

Octo-Tiger takes its configuration from command-line options and input files;
we use a small validated mapping with dotted-key access so scenario builders,
the driver and the distributed simulator share one configuration object.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Mapping, Optional


class ConfigError(KeyError):
    """Raised for unknown keys or invalid values."""


class Config:
    """Immutable-ish configuration mapping with defaults and validation.

    >>> cfg = Config({"hydro.gamma": 5.0 / 3.0})
    >>> cfg["hydro.gamma"]
    1.6666666666666667
    >>> cfg.get("does.not.exist", 42)
    42
    """

    #: Recognised keys and their defaults.  Adding a key here documents it.
    DEFAULTS: Dict[str, Any] = {
        # Mesh
        "mesh.subgrid_n": 8,  # cells per sub-grid edge (Octo-Tiger N)
        "mesh.ghost_width": 2,  # ghost layers for 2nd-order reconstruction
        "mesh.max_level": 3,
        "mesh.refine_density": 1e-4,  # refine where rho exceeds this
        "mesh.domain_size": 2.0,  # cube edge length, code units
        # Hydro
        "hydro.gamma": 5.0 / 3.0,
        "hydro.cfl": 0.4,
        "hydro.reconstruction": "muscl",  # or "constant"
        "hydro.riemann": "hll",
        "hydro.dual_energy_eta": 1e-3,
        # Gravity
        "gravity.enabled": True,
        "gravity.order": 3,  # 1=monopole, 2=+quadrupole, 3=+octupole
        "gravity.theta": 0.5,  # opening criterion for interaction lists
        "gravity.angmom_correction": True,
        # Rotating frame
        "frame.omega": 0.0,
        # Runtime / Kokkos
        "runtime.execution_space": "hpx",  # serial | hpx | device
        "runtime.tasks_per_kernel": 1,
        "runtime.workers": 4,
        "simd.abi": "sve512",  # scalar | neon128 | avx2 | avx512 | sve512
        # Communication
        "comm.local_optimization": True,
        "comm.coalesce": True,  # bundle ghost messages per locality pair
    }

    def __init__(self, overrides: Optional[Mapping[str, Any]] = None) -> None:
        self._values: Dict[str, Any] = dict(self.DEFAULTS)
        if overrides:
            for key, value in overrides.items():
                if key not in self.DEFAULTS:
                    raise ConfigError(f"unknown configuration key: {key!r}")
                self._values[key] = value
        self._validate()

    def _validate(self) -> None:
        if self["mesh.subgrid_n"] < 2:
            raise ConfigError("mesh.subgrid_n must be >= 2")
        if self["mesh.ghost_width"] < 1:
            raise ConfigError("mesh.ghost_width must be >= 1")
        if not 0 < self["hydro.cfl"] <= 1:
            raise ConfigError("hydro.cfl must be in (0, 1]")
        if self["hydro.gamma"] <= 1:
            raise ConfigError("hydro.gamma must be > 1")
        if self["gravity.order"] not in (1, 2, 3):
            raise ConfigError("gravity.order must be 1, 2 or 3")
        if self["runtime.tasks_per_kernel"] < 1:
            raise ConfigError("runtime.tasks_per_kernel must be >= 1")
        if self["runtime.workers"] < 1:
            raise ConfigError("runtime.workers must be >= 1")

    def __getitem__(self, key: str) -> Any:
        try:
            return self._values[key]
        except KeyError:
            raise ConfigError(f"unknown configuration key: {key!r}") from None

    def get(self, key: str, default: Any = None) -> Any:
        return self._values.get(key, default)

    def __contains__(self, key: str) -> bool:
        return key in self._values

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def with_overrides(self, **dotted: Any) -> "Config":
        """Return a new Config with ``key__subkey=value`` style overrides.

        Double underscores map to dots: ``hydro__gamma=1.4`` sets
        ``hydro.gamma``.
        """
        merged = dict(self._values)
        for key, value in dotted.items():
            merged[key.replace("__", ".")] = value
        unknown = set(merged) - set(self.DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
        return Config(merged)

    def as_dict(self) -> Dict[str, Any]:
        return dict(self._values)

    def __repr__(self) -> str:
        changed = {
            k: v for k, v in self._values.items() if v != self.DEFAULTS.get(k)
        }
        return f"Config({changed!r})"
