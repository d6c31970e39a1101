"""Dataset ingestion, synthetic fixtures, and bit-exact persistence.

Matrix files carry a "<rows> <cols>" header followed by one line per row;
values are written as lowercase hexadecimal floats (``float.hex``) so a
write/read round trip is bit-exact, while plain decimals in ``float()``
syntax are accepted on read.  The writer formats blocks of rows from the
float64 bit fields; the reader converts a whole file of either form in one
bulk pass, keeping the per-token parser for files mixing the two and for
the positioned error messages.  Manifests hold one
"<relative-path><TAB><label>" entry per line and ``#`` comments; like every
text input they are read through ``read_lines``.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import GrassLrrError, InfeasibleSpecError, InvalidInputError
from .kernels import principal_angle_cosines
from .manifold import GrassmannPoint, as_matrix, orthonormalize
from .parallel import ordered_map, system_cpus, worker_count
from .rng import SplitMix64

MAX_CENTER_REDRAWS = 1000
# matrix-file bytes each loader worker must have to pay for its fork
LOAD_BYTES_PER_WORKER = 2 << 20
_INT64 = np.iinfo(np.int64)


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
        if not math.isfinite(self.noise_sigma):
            raise InvalidInputError(f"noise_sigma must be finite, got {self.noise_sigma}")
        if not (0.0 <= self.min_separation <= 90.0):
            raise InvalidInputError("min_separation must be in [0, 90] degrees")
        if self.min_separation == 90.0 and self.n_clusters * self.p > self.d:
            raise InvalidInputError("orthogonal centers need C*p <= d")


# float.hex pieces, written from the float64 bit fields: sign, "0x1."/"0x0.",
# 13 mantissa nibbles and a "p<exp>" suffix per value, NUL-padded to a fixed
# width and squeezed out before writing
_HEX_DIGITS = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)
_HEX_PAIRS = _HEX_DIGITS[np.arange(256)[:, None] >> np.array([4, 0]) & 15]  # octet -> 2 digits
_ZERO_FIELD = 2047  # the inf/nan exponent never reaches the writer; zeros borrow its row
_SUFFIX_WIDTH = 6  # "p-1022"
_CELL_WIDTH = 1 + 4 + 13 + _SUFFIX_WIDTH + 1  # sign, lead, nibbles, suffix, separator
_BLOCK_VALUES = 1 << 15  # values per block, written: a few MB of temporaries


def _exponent_suffixes() -> np.ndarray:
    """Row e holds the float.hex suffix of exponent field e; subnormals share p-1022."""
    exponent = np.maximum(np.arange(_ZERO_FIELD + 1), 1) - 1023
    exponent[_ZERO_FIELD] = 0
    magnitude = np.abs(exponent)[:, None]
    place = np.array([1000, 100, 10, 1])
    digits = (magnitude // place % 10 + ord("0")).astype(np.uint8)
    digits[(magnitude < place) & (place > 1)] = 0  # leading zeros become NUL padding
    table = np.empty((_ZERO_FIELD + 1, _SUFFIX_WIDTH), dtype=np.uint8)
    table[:, 0] = ord("p")
    table[:, 1] = np.where(exponent < 0, ord("-"), ord("+"))
    table[:, 2:] = digits
    return table


_EXPONENT_SUFFIXES = _exponent_suffixes()


def _block_rows(cols: int) -> int:
    return max(1, _BLOCK_VALUES // cols)


def _hex_block(block: np.ndarray) -> bytes:
    """The lines of a finite float64 block, each value formatted as ``float.hex`` does."""
    rows, cols = block.shape
    bits = np.ascontiguousarray(block, dtype="<f8").view("<u8").reshape(-1)
    # little-endian octets: 7 holds the sign, 6 the top mantissa nibble, 5..0 the rest
    octets = bits.view(np.uint8).reshape(-1, 8)
    field = (bits >> np.uint64(52)).astype(np.intp) & 2047
    zero = (bits << np.uint64(1)) == 0
    cells = np.zeros((bits.size, _CELL_WIDTH), dtype=np.uint8)
    cells[:, 0] = np.where(octets[:, 7] >> 7, ord("-"), 0)
    cells[:, 1:5] = np.frombuffer(b"0x1.", dtype=np.uint8)
    cells[field == 0, 3] = ord("0")
    cells[:, 5] = np.take(_HEX_DIGITS, octets[:, 6] & 15)
    cells[:, 6:18] = np.take(_HEX_PAIRS, octets[:, 5::-1], axis=0).reshape(-1, 12)
    cells[zero, 6:18] = 0  # 0x0.0p+0
    field[zero] = _ZERO_FIELD
    cells[:, 18:24] = np.take(_EXPONENT_SUFFIXES, field, axis=0)
    cells = cells.reshape(rows, cols, _CELL_WIDTH)
    cells[:, :-1, -1] = ord(" ")
    cells[:, -1, -1] = ord("\n")
    return cells.tobytes().translate(None, b"\0")


def write_matrix(path, M) -> None:
    M = as_matrix(M, "matrix")
    rows, cols = M.shape
    step = _block_rows(cols)
    with open(path, "wb") as fh:
        fh.write(f"{rows} {cols}\n".encode())
        for start in range(0, rows, step):
            fh.write(_hex_block(M[start : start + step]))


def read_lines(path, what: str) -> list[tuple[int, str]]:
    """(line number, stripped text) of each non-blank line of a UTF-8 text file, BOM dropped."""
    if not os.path.exists(path):
        raise InvalidInputError(f"{what} not found: {path}")
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        # exc.object has the BOM stripped; \r\n, lone \r and lone \n each end one line
        head = exc.object[: exc.start]
        line_no = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise InvalidInputError(f"{path}: line {line_no} is not valid UTF-8") from None
    return [(no, ln) for no, ln in enumerate(map(str.strip, text.split("\n")), start=1) if ln]


def _parse_value(token: str, path, line_no: int, col_no: int) -> float:
    try:
        # float.hex output always contains 'x'; anything else is plain decimal
        value = float.fromhex(token) if "x" in token or "X" in token else float(token)
    except OverflowError:  # fromhex raises where float() would round to inf
        value = math.inf
    except ValueError:
        raise InvalidInputError(
            f"{path}: cannot parse value at line {line_no}, column {col_no}: {token!r}"
        ) from None
    if not math.isfinite(value):
        raise InvalidInputError(
            f"{path}: non-finite value at line {line_no}, column {col_no}"
        )
    return value


def _parse_rows(path, cols, body) -> np.ndarray:
    """Per-token parse of numbered body lines; raises the positioned input errors."""
    values = []
    for line_no, line in body:
        tokens = line.split()
        if len(tokens) != cols:
            raise InvalidInputError(
                f"{path}: line {line_no} has {len(tokens)} values, header promises {cols}"
            )
        values += [_parse_value(tok, path, line_no, c) for c, tok in enumerate(tokens, 1)]
    return np.array(values, dtype=np.float64).reshape(len(body), cols)


def _parse_bulk(texts, cols):
    """Every token converted in one pass, or None to defer to ``_parse_rows``.

    ``float.fromhex`` would read a bare decimal as hex and rejects a second
    'x', so a file's count of them picks the converter: ``float`` when it is
    0, ``float.fromhex`` when it equals the token count.  Values are then the
    per-token parser's; a file mixing both forms, whatever the converter
    rejects or overflows, a row of the wrong length and any non-finite value
    are left to the per-token parser and its positioned message.
    """
    rows = list(map(str.split, texts))
    joined = "".join(texts)
    marks, count = joined.count("x") + joined.count("X"), len(rows) * cols
    if set(map(len, rows)) != {cols} or marks not in (0, count):
        return None
    try:
        values = np.fromiter(map(float.fromhex if marks else float,
                                 itertools.chain.from_iterable(rows)),
                             dtype=np.float64, count=count)
    except (ValueError, OverflowError):
        return None
    if not np.isfinite(values).all():
        return None
    return values.reshape(len(rows), cols)


def read_matrix(path) -> np.ndarray:
    lines = read_lines(path, "matrix file")
    if not lines:
        raise InvalidInputError(f"{path}: empty matrix file")
    header_text = lines[0][1]
    header = header_text.split()
    if len(header) != 2:
        raise InvalidInputError(f"{path}: header must be '<rows> <cols>', got {header_text!r}")
    try:
        rows, cols = int(header[0]), int(header[1])
    except ValueError:
        raise InvalidInputError(f"{path}: non-integer header {header_text!r}") from None
    if rows < 1 or cols < 1:
        raise InvalidInputError(f"{path}: header dimensions must be positive")
    body = lines[1:]
    if len(body) != rows:
        raise InvalidInputError(f"{path}: header promises {rows} rows but file has {len(body)}")
    M = _parse_bulk([ln for _, ln in body], cols)
    return M if M is not None else _parse_rows(path, cols, body)


def write_manifest(path, entries) -> None:
    """One "<relative-path><TAB><label>" line per ``(rel, label)`` entry."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(f"{rel}\t{int(label)}" for rel, label in entries) + "\n")


def load_manifest(path) -> Manifest:
    entries = []
    seen = set()
    for line_no, stripped in read_lines(path, "manifest"):
        if stripped.startswith("#"):
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


def _read_set(base_dir: str, rel: str, label: int, d: int | None) -> ImageSet:
    full = os.path.join(base_dir, rel)
    if not os.path.exists(full):
        raise InvalidInputError(f"dataset file not found: {full}")
    samples = read_matrix(full)
    if d is not None and samples.shape[0] != d:
        raise InvalidInputError(f"{full}: sample dimension {samples.shape[0]} differs from {d}")
    return ImageSet(id=rel, samples=samples, label=label)


def _read_sets(base_dir: str, entries, d: int) -> list[ImageSet]:
    return [_read_set(base_dir, rel, label, d) for rel, label in entries]


def load_dataset(manifest: Manifest) -> list[ImageSet]:
    """Every entry's sample matrix, in order; each must have entry 0's sample dimension."""
    if not manifest.entries:
        return []
    first = _read_set(manifest.base_dir, *manifest.entries[0], None)
    return [first] + _read_sets(manifest.base_dir, manifest.entries[1:], first.samples.shape[0])


def _embed_chunk(base_dir: str, entries, d: int, p: int, standardize: bool, head: list):
    """The bases of ``head``'s sets, then of ``entries``' sets, as one (m, d, p) array.

    Returns (bases, None), or (None, the first build error), which waits
    until every file of the chunk is read; a read error is raised.
    """
    sets = [*head, *_read_sets(base_dir, entries, d)]
    try:
        return np.array([build_point(s, p, standardize).basis for s in sets]), None
    except (GrassLrrError, np.linalg.LinAlgError, MemoryError) as exc:
        return None, exc


def load_points(manifest: Manifest, p: int | None = None, standardize: bool = False,
                workers: int | None = None) -> list[GrassmannPoint]:
    """``build_point`` of every entry of ``load_dataset(manifest)``, in manifest order.

    ``p`` defaults to the smaller side of entry 0's matrix.  Entry 0 is read
    here first; then the entries are split into ``workers`` contiguous chunks
    (``load_workers`` when None), which ``parallel.ordered_map`` reads and
    embeds in that many forked processes while this one waits, or here when
    there is one.  The result and every error are the serial loader's: the
    first failing read in manifest order, and a build error only once every
    file has been read.
    """
    entries, base = manifest.entries, manifest.base_dir
    if not entries:
        return []
    workers = max(1, min(load_workers(manifest) if workers is None else workers, len(entries)))
    first = _read_set(base, *entries[0], None)
    d, p = first.samples.shape[0], min(first.samples.shape) if p is None else p
    bounds = [len(entries) * c // workers for c in range(workers + 1)]
    jobs = [(base, entries[max(a, 1) : b], d, p, standardize, [first] if a == 0 else [])
            for a, b in zip(bounds, bounds[1:])]
    try:
        results = list(ordered_map(_embed_chunk, jobs, workers, fork=True))
    except ChildProcessError as exc:
        raise GrassLrrError(f"a worker process loading the dataset stopped: {exc}") from None
    for _, error in results:
        if error is not None:
            raise error
    return [GrassmannPoint(basis=b) for bases, _ in results for b in bases]


def load_workers(manifest: Manifest) -> int:
    """``worker_count`` for loading ``manifest`` here: each worker gets ``LOAD_BYTES_PER_WORKER``.

    1 without ``os.fork``, beside another thread, which a fork would not
    copy, or for files too small to pay for a worker.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    size = 0
    for rel, _ in manifest.entries:
        try:
            size += os.stat(os.path.join(manifest.base_dir, rel)).st_size
        except OSError:  # the read reports it, in manifest order
            pass
    return worker_count(system_cpus(), os.environ, len(manifest.entries), size,
                        LOAD_BYTES_PER_WORKER)


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
            top = float(principal_angle_cosines(centers[i], centers[j])[0])
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
    values = []
    for line_no, stripped in read_lines(path, "labels file"):
        try:
            value = int(stripped)
        except ValueError:
            raise InvalidInputError(
                f"{path}: line {line_no} is not an integer: {stripped!r}"
            ) from None
        if not _INT64.min <= value <= _INT64.max:
            raise InvalidInputError(f"{path}: line {line_no} label {stripped!r} is outside int64")
        values.append(value)
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

