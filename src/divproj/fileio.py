"""JSON/CSV loaders and writers for the CLI file formats.

Schemas:

* distribution: ``{"alphabet": ["a","b"], "probs": [0.5, 0.5]}``
* sample:       ``{"alphabet": [...], "observations": [...]}`` or a CSV with
  one observation label per line (an optional header line named
  observation/label/symbol is skipped)
* family:       ``{"kind": "alpha_power_law", "alpha": 2.0, "q": [...],
  "f": [[...], ...], "alphabet": [...]}``
* linear family: ``{"f": [[...]], "a": [...]}``

Alphabet declaration order is preserved: it is the canonical vector index.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import InputError
from .families import FamilyKind, FamilySpec, LinearFamilySpec
from .measures import Alphabet, Distribution, SampleData, empirical

_CSV_HEADERS = {"observation", "observations", "label", "symbol"}


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise InputError(f"file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from None
    if not isinstance(data, dict):
        raise InputError(f"expected a JSON object in {path}")
    return data


def _need(data: dict, key: str, path) -> object:
    if key not in data:
        raise InputError(f"missing key {key!r} in {path}")
    return data[key]


def _numbers(data: dict, key: str, path, default=None) -> np.ndarray:
    """The entries under ``key`` as a float array; ``InputError`` naming the
    key and the file when they are missing, not numbers or ragged."""
    raw = _need(data, key, path) if default is None else data.get(key, default)
    try:
        return np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        raise InputError(f"non-numeric or ragged entries under {key!r} in {path}") from None


def load_distribution(path) -> Distribution:
    data = _load_json(path)
    alphabet = Alphabet(tuple(_need(data, "alphabet", path)))
    probs = _numbers(data, "probs", path)
    return Distribution(alphabet, probs, strict=bool(np.all(probs > 0.0)))


def load_sample(path, alphabet: Alphabet | None = None) -> SampleData:
    path = Path(path)
    if path.suffix.lower() == ".csv":
        if alphabet is None:
            raise InputError("CSV samples need an alphabet from a family or distribution file")
        try:
            lines = [ln.strip() for ln in path.read_text(encoding="utf-8").splitlines()]
        except FileNotFoundError:
            raise InputError(f"file not found: {path}") from None
        lines = [ln for ln in lines if ln]
        if lines and lines[0].lower() in _CSV_HEADERS:
            lines = lines[1:]
        return empirical(lines, alphabet)
    data = _load_json(path)
    file_alphabet = Alphabet(tuple(_need(data, "alphabet", path)))
    if alphabet is not None and alphabet.symbols != file_alphabet.symbols:
        raise InputError(f"sample alphabet in {path} does not match the family's")
    return empirical(list(_need(data, "observations", path)), file_alphabet)


def load_family(path) -> FamilySpec:
    data = _load_json(path)
    try:
        kind = FamilyKind(str(_need(data, "kind", path)))
    except ValueError:
        raise InputError(f"unknown family kind {data.get('kind')!r} in {path}") from None
    alphabet = Alphabet(tuple(_need(data, "alphabet", path)))
    q = _numbers(data, "q", path)
    f = _numbers(data, "f", path)
    alpha = _numbers(data, "alpha", path, default=1.0)
    if alpha.ndim:
        raise InputError(f"'alpha' in {path} must be one number")
    return FamilySpec(kind, Distribution(alphabet, q, strict=True), f, alpha=float(alpha))


def load_linear_family(path, alphabet: Alphabet | None = None) -> LinearFamilySpec:
    data = _load_json(path)
    f = _numbers(data, "f", path)
    a = _numbers(data, "a", path)
    file_alphabet = Alphabet(tuple(data["alphabet"])) if "alphabet" in data else alphabet
    if alphabet is not None and alphabet.symbols != file_alphabet.symbols:
        raise InputError(f"linear family alphabet in {path} does not match the distribution's")
    return LinearFamilySpec(f, a, alphabet=file_alphabet)


def save_sample(path, sample: SampleData) -> None:
    payload = {
        "alphabet": list(sample.alphabet.symbols),
        "observations": list(sample.observations),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")

