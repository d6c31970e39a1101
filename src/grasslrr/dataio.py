"""Dataset ingestion, synthetic fixtures, and bit-exact persistence.

Matrix files carry a "<rows> <cols>" header followed by one line per row;
values are written as lowercase hexadecimal floats (``float.hex``) so a
write/read round trip is bit-exact, while plain decimals in ``float()``
syntax are accepted on read.  The writer formats blocks of rows from the
float64 bit fields, taking the mantissa digits from ``bytes.hex()`` of each
big-endian word and the exponent suffixes from ``%+d``; the reader converts
a whole file of either form in one bulk pass, keeping the per-token parser
for files mixing the two and for the positioned error messages.  Manifests
hold one "<relative-path><TAB><label>" entry per line and ``#`` comments;
like every text input they are read through ``read_lines``.  ``load_points``
is the one path from a manifest to Grassmann points: each entry's matrix is
read and embedded once, in forked workers when the files are large enough.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import GrassLrrError, InfeasibleSpecError, InvalidInputError, RankDeficientError
from .kernels import KernelSpec, assemble_gram
from .manifold import GrassmannPoint, as_matrix, orthonormalize
from .parallel import ordered_map, system_cpus, worker_count
from .rng import SplitMix64

MAX_CENTER_REDRAWS = 1000
# matrix-file bytes each loader worker must have to pay for its fork
LOAD_BYTES_PER_WORKER = 2 << 20
_INT64 = np.iinfo(np.int64)


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
# the word's last 13 of 16 big-endian hex digits (bytes.hex) and a "p%+d"
# suffix per value, NUL-padded to a fixed width and squeezed out before writing
_CELL_WIDTH = 1 + 4 + 13 + 6 + 1  # sign, lead, digits, suffix ("p-1022"), separator
_BLOCK_VALUES = 1 << 15  # values per block, written: a few MB of temporaries
# row e: exponent field e's suffix, subnormals sharing p-1022; the inf/nan field
# 2047 never reaches the writer, so zeros borrow its row for p+0
_SUFFIXES = np.array([b"p%+d" % (max(e, 1) - 1023) for e in range(2047)] + [b"p+0"],
                     dtype="S6").view(np.uint8).reshape(2048, 6)


def _block_rows(cols: int) -> int:
    return max(1, _BLOCK_VALUES // cols)


def _hex_block(block: np.ndarray) -> bytes:
    """The lines of a finite float64 block, each value formatted as ``float.hex`` does."""
    rows, cols = block.shape
    bits = np.ascontiguousarray(block, dtype="<f8").view("<u8").reshape(-1)
    digits = np.frombuffer(bits.astype(">u8").tobytes().hex().encode(), dtype=np.uint8)
    field = (bits >> np.uint64(52)).astype(np.intp) & 2047
    zero = (bits << np.uint64(1)) == 0
    cells = np.zeros((bits.size, _CELL_WIDTH), dtype=np.uint8)
    cells[:, 0] = np.where(bits >> np.uint64(63), ord("-"), 0)
    cells[:, 1:5] = np.frombuffer(b"0x1.", dtype=np.uint8)
    cells[field == 0, 3] = ord("0")
    cells[:, 5:18] = digits.reshape(-1, 16)[:, 3:]
    cells[zero, 6:18] = 0  # 0x0.0p+0
    field[zero] = 2047
    cells[:, 18:24] = np.take(_SUFFIXES, field, axis=0)
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


def _read_set(base_dir: str, rel: str, d: int | None) -> np.ndarray:
    full = os.path.join(base_dir, rel)
    if not os.path.exists(full):
        raise InvalidInputError(f"dataset file not found: {full}")
    samples = read_matrix(full)
    if d is not None and samples.shape[0] != d:
        raise InvalidInputError(f"{full}: sample dimension {samples.shape[0]} differs from {d}")
    return samples


def _embed_chunk(base_dir: str, entries, d: int, p: int, standardize: bool):
    """``build_point`` of each entry's set, built as soon as it is read."""
    return [build_point(_read_set(base_dir, rel, d), p, standardize, rel) for rel, _ in entries]


def load_points(manifest: Manifest, p: int | None = None,
                standardize: bool = False) -> list[GrassmannPoint]:
    """``build_point`` of every entry's sample matrix, in manifest order.

    ``p`` defaults to the smaller side of entry 0's matrix, and every entry
    must have entry 0's sample dimension.  Entry 0 is read and embedded here
    first; then the other entries are split into ``load_workers`` contiguous
    chunks, which ``parallel.ordered_map`` reads and embeds in that many
    forked processes while this one waits, or here when there is one.  A
    worker sends back the points it built, so each point is built once.  The
    error is that of the first entry, in manifest order, whose file cannot be
    read or whose basis cannot be built, whatever the worker count.
    """
    entries, base = manifest.entries, manifest.base_dir
    if not entries:
        return []
    workers = max(1, min(load_workers(manifest), len(entries) - 1))  # no empty chunk
    first = _read_set(base, entries[0][0], None)
    d, p = first.shape[0], min(first.shape) if p is None else p
    points = [build_point(first, p, standardize, entries[0][0])]
    rest = entries[1:]
    bounds = [len(rest) * c // workers for c in range(workers + 1)]
    jobs = [(base, rest[a:b], d, p, standardize) for a, b in zip(bounds, bounds[1:])]
    try:
        for chunk in ordered_map(_embed_chunk, jobs, workers, fork=True):
            points += chunk
    except ChildProcessError as exc:
        raise GrassLrrError(f"a worker process loading the dataset stopped: {exc}") from None
    for q in points:  # a forked worker's bases come back unpickled, and writeable
        q.basis.setflags(write=False)
    return points


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


def build_point(samples, p: int, standardize: bool, name: str) -> GrassmannPoint:
    """Subspace basis from the first p left singular vectors of a sample matrix.

    ``samples``, checked finite and 2-D here, holds one vectorized observation
    per column; ``name``, the manifest entry's path, heads every error.
    ``standardize`` centers and scales each column to mean zero and unit
    variance first.  A power-of-two scale per column first (exact, and lost
    in the result) keeps its squares in range.
    """
    samples = as_matrix(samples, f"samples[{name}]")
    if standardize:
        samples = np.ldexp(samples, -np.frexp(np.max(np.abs(samples), axis=0))[1])
        mean = samples.mean(axis=0, keepdims=True)
        std = samples.std(axis=0, keepdims=True)
        if np.any(std == 0.0):
            bad = int(np.flatnonzero(std[0] == 0.0)[0])
            raise InvalidInputError(
                f"sample column {bad} of {name!r} is constant; cannot standardize"
            )
        samples = (samples - mean) / std
    try:
        return orthonormalize(samples, p)
    except RankDeficientError as exc:
        raise RankDeficientError(f"{name!r}: {exc}", exc.achieved_rank) from None
    except InvalidInputError as exc:  # p beyond the matrix's sides
        raise InvalidInputError(f"{name!r}: {exc}") from None


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
            # cc-max's largest off-diagonal entry is the cosine of the smallest pairwise angle
            if C == 1 or spec.min_separation == 0.0 or math.degrees(math.acos(np.triu(assemble_gram(
                    draw, KernelSpec(kind="cc-max")), 1).max())) >= spec.min_separation:
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

