"""Per-layer spans taken from outside the program.

``install`` wraps the public entry points of each ``tsgn`` module listed in
TARGETS and rebinds every reference the package holds to them (module
globals, names imported into other modules, and the values of module-level
dicts such as ``transforms.BUILDERS``), so calls made inside the package are
timed too. Nothing under ``src/`` changes. A span records its name, its
parent span, and its start and end; the per-layer metrics are the time spent
inside calls to each entry point, with a call nested in a call to the same
entry point counted once.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

# (module, attribute path, metric stem); the metric is "<module>.<stem>_s".
TARGETS = (
    ("ingest", "load_dataset", "load_dataset"),
    ("ingest", "load_edge_list", "load_edge_list"),
    ("ingest", "extract_ego_network", "extract_ego_network"),
    ("graphs", "at_tier", "at_tier"),
    ("graphs", "undirected_projection", "undirected_projection"),
    ("transforms", "build_tsgn", "build_tsgn"),
    ("transforms", "build_directed_tsgn", "build_directed_tsgn"),
    ("transforms", "build_temporal_tsgn", "build_temporal_tsgn"),
    ("transforms", "build_multiple_tsgn", "build_multiple_tsgn"),
    ("features", "feature_matrix", "feature_matrix"),
    ("features", "simple_adjacency", "simple_adjacency"),
    ("features", "average_neighbor_degree", "average_neighbor_degree"),
    ("features", "average_clustering", "average_clustering"),
    ("features", "largest_eigenvalue", "largest_eigenvalue"),
    ("features", "betweenness_centrality", "betweenness_centrality"),
    ("features", "closeness_centrality", "closeness_centrality"),
    ("features", "FeatureMatrix.to_csv", "to_csv"),
    ("features", "PCA.fit", "pca_fit"),
    ("features", "PCA.transform", "pca_transform"),
    ("ml", "evaluate", "evaluate"),
    ("ml", "stratified_split", "stratified_split"),
    ("ml", "RandomForest.fit", "forest_fit"),
    ("ml", "RandomForest.predict", "forest_predict"),
)
MAIN = "cli.main"
SPAN_NAMES = tuple(f"{module}.{stem}" for module, _, stem in TARGETS) + (MAIN,)


class Tracer:
    """Collects spans in memory; ``dump`` writes them out after the run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or None, start, end]
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.spans.append([name, self._open[-1] if self._open else None,
                               time.perf_counter(), None])
            self._open.append(len(self.spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans[self._open.pop()][3] = time.perf_counter()
        return traced

    def install(self) -> list[str]:
        """Wrap every target; returns the targets this version of tsgn lacks."""
        missing = []
        for module, path, stem in TARGETS:
            mod = importlib.import_module(f"tsgn.{module}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            original = getattr(owner, attr, None)
            if original is None:
                missing.append(f"tsgn.{module}.{path}")
                continue
            wrapped = self.wrap(f"{module}.{stem}", original)
            if owner_name:
                setattr(owner, attr, wrapped)
                continue
            for name, loaded in list(sys.modules.items()):
                if name != "tsgn" and not name.startswith("tsgn."):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, key, wrapped)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                value[k] = wrapped
        return missing

    def metrics(self) -> dict[str, float]:
        """Seconds inside each span name, plus ``cli.self_s``: time in main
        outside every wrapped call."""
        totals = dict.fromkeys(SPAN_NAMES, 0.0)
        children = [0.0] * len(self.spans)
        for i, (name, parent, start, end) in enumerate(self.spans):
            if parent is not None:
                children[parent] += end - start
            ancestor = parent
            while ancestor is not None and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][1]
            if ancestor is None:
                totals[name] += end - start
        out = {f"{name}_s": seconds for name, seconds in totals.items()}
        out["cli.self_s"] = sum(
            end - start - children[i]
            for i, (name, _, start, end) in enumerate(self.spans) if name == MAIN
        )
        return out

    def dump(self, path: Path, round_index: int) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"round": round_index, "span": i, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")
