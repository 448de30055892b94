"""WB_CACHE_DIR: a derivation writes a missing entry and never reads one.

Every universal set is solved in process, so a corrupted or tampered entry
changes no output, and an existing entry is left as it is written.  The CLI
cases run in fresh processes, so the in-process memo cannot hide what a
process would read from disk.
"""
import hashlib
import json
import os
import subprocess
import sys

import pytest

from wittburnside import (
    TruncationSet,
    build_group,
    cyc_universal,
    derive_universal,
    q_universal,
)
from wittburnside.cyclic import _truncation_universal
from wittburnside.universal import MEMO, index_labels


def run_cli(cache, *argv):
    env = dict(os.environ, WB_CACHE_DIR=str(cache))
    return subprocess.run(
        [sys.executable, "-m", "wittburnside", *argv],
        capture_output=True, text=True, env=env,
    )


def run_python(cache, code):
    env = dict(os.environ, WB_CACHE_DIR=str(cache))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)


def write_vec(path, group, components, labels):
    doc = {"schema_version": 1, "group": group, "flavor": "Witt", "ring": "Z",
           "components": components, "labels": labels}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def only_file(cache, pattern):
    names = [n for n in os.listdir(cache) if pattern(n)]
    assert len(names) == 1, names
    return cache / names[0]


@pytest.fixture
def cache(tmp_path, monkeypatch):
    root = tmp_path / "cache"
    monkeypatch.setenv("WB_CACHE_DIR", str(root))
    MEMO.clear()
    yield root
    MEMO.clear()


def test_fractional_coefficient_entry_is_never_read(tmp_path):
    cache = tmp_path / "cache"
    a = write_vec(tmp_path / "a.json", "C2", ["3", "5"], ["G", "1"])
    b = write_vec(tmp_path / "b.json", "C2", ["4", "-2"], ["G", "1"])
    first = run_cli(cache, "witt", "mul", a, b)
    assert first.returncode == 0, first.stderr
    path = only_file(cache, lambda n: n.startswith("wg-") and "prod" in n)
    good = path.read_bytes()
    data = json.loads(good)
    data["polys"][1][0][0] = "1/2"
    path.write_text(json.dumps(data), encoding="utf-8")
    bad = path.read_bytes()
    # no verb reads an entry, so none trips over or mends this one
    second = run_cli(cache, "witt", "mul", a, b)
    assert second.returncode == 0, second.stderr
    assert second.stdout == first.stdout
    assert path.read_bytes() == bad
    forms = run_cli(cache, "universal", "--group", "C2", "--op", "prod")
    assert forms.returncode == 0, forms.stderr
    assert forms.stdout == run_cli(tmp_path / "fresh", "universal", "--group", "C2",
                                   "--op", "prod").stdout
    assert path.read_bytes() == bad != good


def test_truncated_poly_list_entry_is_never_read(tmp_path):
    cache = tmp_path / "cache"
    trunc = {"cyclic_trunc": [1, 2, 3, 6]}
    a = write_vec(tmp_path / "a.json", trunc, ["2", "-1", "3", "0"], [1, 2, 3, 6])
    b = write_vec(tmp_path / "b.json", trunc, ["1", "4", "-2", "5"], [1, 2, 3, 6])
    first = run_cli(cache, "cyclic", "witt", "mul", a, b)
    assert first.returncode == 0, first.stderr
    path = only_file(cache, lambda n: n.startswith("cyc-") and "prod" in n)
    good = path.read_bytes()
    data = json.loads(good)
    data["polys"] = data["polys"][:-1]
    path.write_text(json.dumps(data), encoding="utf-8")
    bad = path.read_bytes()
    second = run_cli(cache, "cyclic", "witt", "mul", a, b)
    assert second.returncode == 0, second.stderr
    assert second.stdout == first.stdout
    assert path.read_bytes() == bad
    # a fresh process that reads the polynomials solves them and leaves the entry
    read = ("from wittburnside import TruncationSet, cyc_universal; "
            "print([p.format() for p in cyc_universal(TruncationSet.div(6), 'prod').polys])")
    forms = run_python(cache, read)
    assert forms.returncode == 0, forms.stderr
    assert forms.stdout == run_python(tmp_path / "fresh", read).stdout
    assert path.read_bytes() == bad != good


def test_hit_writes_nothing_and_names_carry_the_format(cache):
    from wittburnside.universal import FORMAT

    first = derive_universal(build_group("C4"), "prod")
    names = sorted(os.listdir(cache))
    assert len(names) == 1 and names[0].endswith(f"-{FORMAT}.json")
    before = (cache / names[0]).stat().st_mtime_ns
    MEMO.clear()
    second = derive_universal(build_group("C4"), "prod")
    assert second.polys == first.polys and second is not first
    assert sorted(os.listdir(cache)) == names
    assert (cache / names[0]).stat().st_mtime_ns == before


def corrupt_and_rederive(cache, derive, edit):
    good = derive()
    path = only_file(cache, lambda n: True)
    data = json.loads(path.read_bytes())
    path.write_text(edit(data), encoding="utf-8")
    edited = path.read_bytes()
    MEMO.clear()
    again = derive()
    assert again.polys == good.polys
    assert path.read_bytes() == edited


def bump_first_coefficient(data):
    terms = data["polys"][-1]
    k = next(i for i, (c, _) in enumerate(terms) if isinstance(c, int))
    terms[k][0] += 1
    return json.dumps(data)


@pytest.mark.parametrize("edit", [
    lambda data: "{not json",
    lambda data: json.dumps([1, 2, 3]),
    lambda data: json.dumps(dict(data, vars=data["vars"][::-1])),
    lambda data: json.dumps(dict(data, polys=[[[1, [0]]]] * len(data["polys"]))),
    lambda data: json.dumps(dict(data, polys=[[["x", e] for _, e in p] for p in data["polys"]])),
    lambda data: json.dumps(dict(data, polys=[[[c, [10 ** 9] * len(e)] for c, e in p]
                                              for p in data["polys"]])),
    bump_first_coefficient,
])
def test_cyclic_entry_rejections(cache, edit):
    T = TruncationSet.div(6)
    corrupt_and_rederive(cache, lambda: cyc_universal(T, "sum"), edit)


def test_q_entry_with_a_wrong_coefficient_is_never_read(cache):
    # a numerical but wrong q-coefficient
    T = TruncationSet.div(4)
    corrupt_and_rederive(cache, lambda: q_universal(T, "prod"), bump_first_coefficient)


def test_q_entry_with_non_numerical_coefficient(cache):
    def halve(data):
        data["polys"][0][0][0] = "1/2"
        return json.dumps(data)
    T = TruncationSet.div(4)
    corrupt_and_rederive(cache, lambda: _truncation_universal(T, "frob2", True, 2), halve)


def add_terms(poly, terms):
    """poly (an entry's [coefficient, exponents] list) plus terms, merged by
    exponents."""
    coeffs = {tuple(e): c for c, e in poly}
    for c, e in terms:
        coeffs[tuple(e)] = coeffs.get(tuple(e), 0) + c
    poly[:] = [[c, list(e)] for e, c in sorted(coeffs.items(), reverse=True) if c]


def tamper_and_rerun(tmp_path, argv, edit):
    """Run argv, edit the one entry it wrote, and run it again: the output is
    a fresh solve's, and the entry keeps the edit."""
    cache = tmp_path / "cache"
    first = run_cli(cache, *argv)
    assert first.returncode == 0, first.stderr
    path = only_file(cache, lambda n: True)
    data = json.loads(path.read_bytes())
    edit(data)
    path.write_text(json.dumps(data, sort_keys=True), encoding="utf-8")
    tampered = path.read_bytes()
    again = run_cli(cache, *argv)
    assert again.returncode == 0, again.stderr
    assert again.stdout == first.stdout == run_cli(tmp_path / "fresh", *argv).stdout
    assert path.read_bytes() == tampered


def test_tampered_group_entry_changes_no_output(tmp_path):
    # a_1 - 4 vanishes at the point (3, 4, 5, 6), where a one-point check of
    # the ghost identity would evaluate the entry
    def edit(data):
        assert data["vars"] == ["a_G", "a_1", "b_G", "b_1"]
        add_terms(data["polys"][0], [[1, [0, 1, 0, 0]], [-4, [0, 0, 0, 0]]])
    tamper_and_rerun(tmp_path, ["universal", "--group", "C2", "--op", "sum"], edit)


def test_tampered_q_entry_changes_no_output(tmp_path):
    # (q - 2) a_1 vanishes at q = 2, where a check at an integer q would
    # evaluate the entry
    def edit(data):
        assert data["vars"][:2] == ["q", "a_1"]
        zero = [0] * len(data["vars"])
        add_terms(data["polys"][-1], [[1, [1, 1] + zero[2:]], [-2, [0, 1] + zero[2:]]])
    tamper_and_rerun(tmp_path, ["quniversal", "--op", "prod", "--trunc", "4"], edit)


def test_unwritable_cache_dir_still_derives(tmp_path, monkeypatch):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    monkeypatch.setenv("WB_CACHE_DIR", str(blocker / "sub"))
    MEMO.clear()
    try:
        assert derive_universal(build_group("C2"), "sum").polys
    finally:
        MEMO.clear()


# the name and sha256 of the entry each derivation writes; the q entry has
# "n/d" coefficient strings
ENTRIES = [
    (lambda: derive_universal(build_group("C4"), "prod"), "wg-031f409039ede13a-prod-u2.json",
     "619d651569188d2362e0dd0af281eb1629ff250f953e296f9ecbac2b4a5b5ba3"),
    (lambda: cyc_universal(TruncationSet.div(6), "sum"), "cyc-188a55c6ac41b9a9-sum-u2.json",
     "d2a9224bdb74e113bd64fe49734e67c77755697f9fa6e8dc93d2fbce661f980f"),
    (lambda: q_universal(TruncationSet.div(6), "prod"), "cyc-188a55c6ac41b9a9-qprod-u2.json",
     "a68b2375ac6d69d7cade3db27c529ca5af6ca6321a708b4f7365d81db5c49113"),
]


@pytest.mark.parametrize("derive,name,digest", ENTRIES, ids=["C4-prod", "div6-sum", "q-div6-prod"])
def test_entry_bytes_are_pinned(cache, derive, name, digest):
    derive()
    path = only_file(cache, lambda n: True)
    assert path.name == name
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("builtin", [True, False], ids=["_sha256", "hashlib"])
def test_entry_names_do_not_depend_on_the_sha256_module(tmp_path, monkeypatch, builtin):
    from wittburnside.universal import _cache_path

    monkeypatch.setenv("WB_CACHE_DIR", str(tmp_path))
    if not builtin:
        monkeypatch.setitem(sys.modules, "_sha256", None)  # its import then fails
    G, T = build_group("C4"), TruncationSet.div(6)
    assert os.path.basename(_cache_path(G, index_labels(G), "prod")) == ENTRIES[0][1]
    assert os.path.basename(_cache_path(T, T.members, "sum")) == ENTRIES[1][1]
