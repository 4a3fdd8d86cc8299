"""Engine configuration.

One small config dataclass per concern (the reference's YAML config +
constants.py collapse into these).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class BlockingConfig:
    shingle_k: int = 3            # token shingle width
    num_bands: int = 16
    rows_per_band: int = 4        # 64 perms; LSH threshold ~0.5 Jaccard
    minhash_seed: int = 2024
    # candidate-generation skew control.  hot_key_cap is APPROXIMATE
    # under the driver merge of partial counts: the hot-key scan drops
    # per-batch-unique keys before merging, so counts for keys spread
    # thinly across batches are underestimates and their salt factor
    # may be lower than count/cap.  This only affects load balance
    # (the emitted pair set is identical either way, and the
    # degenerate-clique guard still bounds any residual group).
    hot_key_cap: int = 64         # block sizes above this get salted
    max_salts: int = 16
    num_buckets: int = 256        # co-location buckets for pair generation


@dataclass(frozen=True)
class ScoringConfig:
    jaccard_threshold: float = 0.5      # match decision (exact shingle Jaccard)
    est_prefilter: float = 0.35         # MinHash-estimate prefilter before verify


@dataclass(frozen=True)
class ClusterConfig:
    max_rounds: int = 30
    num_buckets: int = 256
    # edge count below which connected-components finishes with a
    # single driver-side union-find pass instead of more shuffle rounds
    driver_finish_edges: int = 1_000_000


@dataclass(frozen=True)
class ReconcileConfig:
    blocking: BlockingConfig = field(default_factory=BlockingConfig)
    scoring: ScoringConfig = field(default_factory=ScoringConfig)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)

    @classmethod
    def from_dict(cls, d: dict) -> "ReconcileConfig":
        """Build a config from a nested dict (the reference's YAML
        config surface, ``query_db/config_sample.yaml:9-76`` /
        ``workflows.py:33-54``).  Unknown keys raise — config typos
        must not silently fall back to defaults."""
        sections = {"blocking": BlockingConfig, "scoring": ScoringConfig,
                    "cluster": ClusterConfig}
        unknown = set(d) - set(sections)
        if unknown:
            raise ValueError(f"unknown config sections: {sorted(unknown)}")
        kwargs = {}
        for name, section_cls in sections.items():
            sub = d.get(name, {})
            valid = {f.name for f in
                     section_cls.__dataclass_fields__.values()}
            bad = set(sub) - valid
            if bad:
                raise ValueError(
                    f"unknown keys in [{name}]: {sorted(bad)}")
            kwargs[name] = section_cls(**sub)
        return cls(**kwargs)

    @classmethod
    def from_yaml(cls, path: str) -> "ReconcileConfig":
        """Load from a YAML file (PyYAML ships with Ray)."""
        import yaml

        with open(path) as f:
            return cls.from_dict(yaml.safe_load(f) or {})


def tune_data_context(quiet: bool = True) -> None:
    """Apply engine-wide Ray Data execution settings."""
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.execution_options.preserve_order = False
    if quiet:
        ctx.enable_progress_bars = False
        ctx.execution_options.verbose_progress = False
