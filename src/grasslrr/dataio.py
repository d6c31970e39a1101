"""Dataset ingestion, synthetic fixtures, and bit-exact persistence.

Matrix files carry a "<rows> <cols>" header followed by one line per row;
values are written as lowercase hexadecimal floats (``float.hex``) so a
write/read round trip is bit-exact, while plain decimals are accepted on
read.  Manifests are UTF-8 text with one "<relative-path><TAB><label>" entry
per line and ``#`` comments.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleSpecError, InvalidInputError
from .kernels import principal_angle_cosines
from .manifold import GrassmannPoint, as_matrix, orthonormalize
from .rng import SplitMix64

MAX_CENTER_REDRAWS = 1000


@dataclass(frozen=True)
class ImageSet:
    """One sample set: columns of ``samples`` are vectorized observations."""

    id: str
    samples: np.ndarray
    label: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "samples", as_matrix(self.samples, f"samples[{self.id}]"))


@dataclass(frozen=True)
class Manifest:
    entries: list
    base_dir: str


@dataclass(frozen=True)
class SynthSpec:
    """Union-of-subspaces generator: C cluster centers, per-cluster noisy copies."""

    n_clusters: int
    per_cluster: int
    d: int
    p: int
    noise_sigma: float = 0.0
    min_separation: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n_clusters < 1 or self.per_cluster < 1 or self.n_clusters * self.per_cluster < 2:
            raise InvalidInputError("need at least 2 points overall")
        if not (1 <= self.p <= self.d):
            raise InvalidInputError(f"p={self.p} must lie in [1, d={self.d}]")
        if self.noise_sigma < 0.0:
            raise InvalidInputError("noise_sigma must be nonnegative")
        if not (0.0 <= self.min_separation <= 90.0):
            raise InvalidInputError("min_separation must be in [0, 90] degrees")
        if self.min_separation == 90.0 and self.n_clusters * self.p > self.d:
            raise InvalidInputError("orthogonal centers need C*p <= d")


def write_matrix(path, M) -> None:
    M = as_matrix(M, "matrix")
    rows, cols = M.shape
    lines = [f"{rows} {cols}"]
    # row.tolist() yields Python floats, so float.hex needs no per-value
    # conversion; one row at a time keeps the boxed floats of one row alive
    lines.extend(" ".join(map(float.hex, row.tolist())) for row in M)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file, newlines removed; undecodable bytes are an input error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().split("\n")
    except UnicodeDecodeError as exc:
        line_no = exc.object.count(b"\n", 0, exc.start) + 1
        raise InvalidInputError(f"{path}: line {line_no} is not valid UTF-8") from None


def _parse_value(token: str, path, line_no: int, col_no: int) -> float:
    try:
        # float.hex output always contains 'x'; anything else is plain decimal
        value = float.fromhex(token) if "x" in token or "X" in token else float(token)
    except ValueError:
        raise InvalidInputError(
            f"{path}: cannot parse value at line {line_no}, column {col_no}: {token!r}"
        ) from None
    if not math.isfinite(value):
        raise InvalidInputError(
            f"{path}: non-finite value at line {line_no}, column {col_no}"
        )
    return value


def read_matrix(path) -> np.ndarray:
    if not os.path.exists(path):
        raise InvalidInputError(f"matrix file not found: {path}")
    lines = [ln for ln in map(str.strip, read_lines(path)) if ln]
    if not lines:
        raise InvalidInputError(f"{path}: empty matrix file")
    header = lines[0].split()
    if len(header) != 2:
        raise InvalidInputError(f"{path}: header must be '<rows> <cols>', got {lines[0]!r}")
    try:
        rows, cols = int(header[0]), int(header[1])
    except ValueError:
        raise InvalidInputError(f"{path}: non-integer header {lines[0]!r}") from None
    if rows < 1 or cols < 1:
        raise InvalidInputError(f"{path}: header dimensions must be positive")
    if len(lines) - 1 != rows:
        raise InvalidInputError(
            f"{path}: header promises {rows} rows but file has {len(lines) - 1}"
        )
    M = np.empty((rows, cols))
    for r, line in enumerate(lines[1:], start=2):
        tokens = line.split()
        if len(tokens) != cols:
            raise InvalidInputError(
                f"{path}: line {r} has {len(tokens)} values, header promises {cols}"
            )
        for c, tok in enumerate(tokens):
            M[r - 2, c] = _parse_value(tok, path, r, c + 1)
    return M


def load_manifest(path) -> Manifest:
    if not os.path.exists(path):
        raise InvalidInputError(f"manifest not found: {path}")
    entries = []
    seen = set()
    for line_no, line in enumerate(read_lines(path), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split("\t")
        if len(parts) != 2:
            raise InvalidInputError(
                f"{path}: line {line_no} must be '<path>\\t<label>', got {stripped!r}"
            )
        rel, label_text = parts[0].strip(), parts[1].strip()
        try:
            label = int(label_text)
        except ValueError:
            raise InvalidInputError(
                f"{path}: line {line_no} has non-integer label {label_text!r}"
            ) from None
        if label < 0:
            raise InvalidInputError(f"{path}: line {line_no} has negative label {label}")
        if rel in seen:
            raise InvalidInputError(f"{path}: duplicate entry {rel!r}")
        seen.add(rel)
        entries.append((rel, label))
    return Manifest(entries=entries, base_dir=os.path.dirname(os.path.abspath(path)))


def load_dataset(manifest: Manifest) -> list[ImageSet]:
    sets = []
    d = None
    for rel, label in manifest.entries:
        full = os.path.join(manifest.base_dir, rel)
        if not os.path.exists(full):
            raise InvalidInputError(f"dataset file not found: {full}")
        samples = read_matrix(full)
        if d is None:
            d = samples.shape[0]
        elif samples.shape[0] != d:
            raise InvalidInputError(
                f"{full}: sample dimension {samples.shape[0]} differs from {d}"
            )
        sets.append(ImageSet(id=rel, samples=samples, label=label))
    return sets


def build_point(image_set: ImageSet, p: int, standardize: bool = False) -> GrassmannPoint:
    """Subspace basis from the first p left singular vectors of the sample matrix.

    ``standardize`` centers and scales each column (sample) to mean zero and
    unit variance first; off by default since it is dataset-dependent.
    """
    samples = image_set.samples
    if standardize:
        mean = samples.mean(axis=0, keepdims=True)
        std = samples.std(axis=0, keepdims=True)
        if np.any(std == 0.0):
            bad = int(np.flatnonzero(std[0] == 0.0)[0])
            raise InvalidInputError(
                f"sample column {bad} of {image_set.id!r} is constant; cannot standardize"
            )
        samples = (samples - mean) / std
    return orthonormalize(samples, p)


def _min_pairwise_angle_deg(centers: list[GrassmannPoint]) -> float:
    worst = 90.0
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            top = float(principal_angle_cosines(centers[i], centers[j]).cosines[0])
            worst = min(worst, math.degrees(math.acos(min(max(top, 0.0), 1.0))))
    return worst


def synth_union(spec: SynthSpec) -> tuple[list[GrassmannPoint], np.ndarray]:
    """Seeded union-of-subspaces sample: points plus ground-truth labels.

    Centers are orthonormalized Gaussian bases redrawn until every pair is
    separated by at least ``min_separation`` degrees; exact 90-degree
    separation is constructed directly by slicing one orthonormal frame.
    Each point orthonormalizes ``center + noise_sigma * Gaussian``.
    """
    rng = SplitMix64(spec.seed)
    C, m = spec.n_clusters, spec.per_cluster

    if spec.min_separation == 90.0:
        frame = orthonormalize(rng.normal_matrix(spec.d, C * spec.p), C * spec.p)
        centers = [
            GrassmannPoint(basis=frame.basis[:, c * spec.p : (c + 1) * spec.p]) for c in range(C)
        ]
    else:
        centers = None
        for _ in range(MAX_CENTER_REDRAWS):
            draw = [orthonormalize(rng.normal_matrix(spec.d, spec.p), spec.p) for _ in range(C)]
            if C == 1 or _min_pairwise_angle_deg(draw) >= spec.min_separation:
                centers = draw
                break
        if centers is None:
            raise InfeasibleSpecError(
                f"could not draw {C} centers separated by {spec.min_separation} degrees "
                f"in {MAX_CENTER_REDRAWS} attempts"
            )

    points = []
    labels = np.empty(C * m, dtype=np.int64)
    for c, center in enumerate(centers):
        for k in range(m):
            noisy = center.basis + spec.noise_sigma * rng.normal_matrix(spec.d, spec.p)
            points.append(orthonormalize(noisy, spec.p))
            labels[c * m + k] = c
    labels.setflags(write=False)
    return points, labels


def write_labels(path, labels) -> None:
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(str(int(v)) for v in labels) + "\n")


def read_labels(path) -> np.ndarray:
    if not os.path.exists(path):
        raise InvalidInputError(f"labels file not found: {path}")
    values = []
    for line_no, line in enumerate(read_lines(path), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            values.append(int(stripped))
        except ValueError:
            raise InvalidInputError(
                f"{path}: line {line_no} is not an integer: {stripped!r}"
            ) from None
    return np.asarray(values, dtype=np.int64)


def save_results(out_dir, Z, labels, report: dict) -> dict:
    """Write Z.mat, labels.txt and a key=value report.txt; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    z_path = os.path.join(out_dir, "Z.mat")
    labels_path = os.path.join(out_dir, "labels.txt")
    report_path = os.path.join(out_dir, "report.txt")
    write_matrix(z_path, Z.Z if hasattr(Z, "Z") else Z)
    write_labels(labels_path, labels.labels if hasattr(labels, "labels") else labels)
    with open(report_path, "w", encoding="utf-8") as fh:
        for key, value in report.items():
            fh.write(f"{key}={value}\n")
    return {"Z": z_path, "labels": labels_path, "report": report_path}


def load_report(path) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            stripped = line.strip()
            if not stripped:
                continue
            key, _, value = stripped.partition("=")
            out[key] = value
    return out
