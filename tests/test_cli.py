"""CLI tests: golden files, exit codes, and file round trips.

The golden documents under tests/goldens/ were captured from hand-verified
values (C2/S3 marks, the classical Witt product forms, the q-weighted
divisor-lattice polynomials checked at q = 1) before being frozen.
"""
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from wittburnside.cli import QPOLY_N_BOUND, QUNIVERSAL_N_BOUND, main
from wittburnside.errors import DomainError, SchemaError
from wittburnside.qdeform import CURVE_DEGREE_BOUND, Q_SYMBOLIC_PROD_BOUND
from wittburnside.rings import divisors
from wittburnside.verify import SIZE_BOUND, run_suite

GOLDENS = pathlib.Path(__file__).resolve().parent / "goldens"


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "wittburnside", *argv],
        capture_output=True,
        text=True,
    )


def run_main(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_vec(tmp_path, name, **fields):
    doc = {"schema_version": 1, **fields}
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def c2vec(tmp_path, name, flavor, components, ring="Z", **extra):
    return write_vec(
        tmp_path,
        name,
        group="C2",
        flavor=flavor,
        ring=ring,
        components=components,
        labels=["G", "1"],
        **extra,
    )


# --- golden files (byte-exact) ------------------------------------------------


@pytest.mark.parametrize(
    "argv,golden",
    [
        (("group", "info", "--group", "S3"), "group_info_S3.json"),
        (("universal", "--group", "C2", "--op", "prod"), "universal_C2_prod.json"),
        (("qpoly", "P", "--n", "6"), "qpoly_P_6.json"),
        (("group", "info", "--group", "S4"), "group_info_S4.json"),
        (("group", "info", "--group", "D12"), "group_info_D12.json"),
        (("quniversal", "--op", "prod", "--trunc", "6"), "quniversal_prod_6.json"),
    ],
)
def test_golden_outputs(argv, golden):
    proc = run_cli(*argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDENS / golden).read_text(encoding="utf-8")


INPUTS = GOLDENS / "inputs"


def _inp(name):
    return str(INPUTS / name)


# byte-exact outputs pinned from the library: one call per handler family of
# the group, cyclic and q-deformed models
@pytest.mark.parametrize(
    "argv,golden",
    [
        (("witt", "mul", _inp("witt_D4_a.json"), _inp("witt_D4_b.json")), "witt_mul_D4.json"),
        (("necklace", "mul", _inp("necklace_S3_a.json"), _inp("necklace_S3_b.json")),
         "necklace_mul_S3.json"),
        (("ghost", _inp("witt_D4_a.json")), "ghost_D4.json"),
        (("theta", _inp("necklace_S3_a.json")), "theta_S3.json"),
        (("cyclic", "witt", "mul", _inp("witt_div12_a.json"), _inp("witt_div12_b.json")),
         "cyclic_witt_mul_div12.json"),
        (("cyclic", "frobenius", "--r", "2", _inp("witt_div12_a.json")),
         "cyclic_frobenius_2_div12.json"),
        (("qwitt", "mul", "--q", "2", _inp("witt_1to8_a.json"), _inp("witt_1to8_b.json")),
         "qwitt_mul_q2_1to8.json"),
        (("qwitt", "mul", "--q", "q", _inp("witt_div6_qq_a.json"), _inp("witt_div6_qq_b.json")),
         "qwitt_mul_qq_div6.json"),
        (("qwitt", "teichmuller", "--q", "2", _inp("witt_1to8_a.json")),
         "qwitt_teichmuller_q2_1to8.json"),
        (("teichmuller", _inp("witt_D4_z8.json")), "teichmuller_D4_z8.json"),
        (("cyclic", "necklace", "mul", _inp("necklace_div12_a.json"),
          _inp("necklace_div12_b.json")), "cyclic_necklace_mul_div12.json"),
        (("cyclic", "aperiodic", "mul", _inp("aperiodic_div12_a.json"),
          _inp("aperiodic_div12_b.json")), "cyclic_aperiodic_mul_div12.json"),
        (("cyclic", "frobenius", "--r", "2", _inp("necklace_div12_a.json")),
         "cyclic_necklace_frobenius_2_div12.json"),
        (("qwitt", "mul", "--q", "2", _inp("necklace_1to8_a.json"), _inp("necklace_1to8_b.json")),
         "qwitt_necklace_mul_q2_1to8.json"),
        (("qwitt", "mul", "--q", "q", _inp("aperiodic_div6_qq_a.json"),
          _inp("aperiodic_div6_qq_b.json")), "qwitt_aperiodic_mul_qq_div6.json"),
        (("qwitt", "frobenius", "--q", "q", "--r", "2", _inp("necklace_div8_qq.json")),
         "qwitt_necklace_frobenius_qq_2_div8.json"),
        # vectors of bivariate polynomials, whose ghost rows raise them to powers
        (("witt", "mul", _inp("witt_S3_zpoly_a.json"), _inp("witt_S3_zpoly_b.json")),
         "witt_mul_S3_zpoly.json"),
        (("cyclic", "witt", "mul", _inp("witt_1to8_qpoly_a.json"), _inp("witt_1to8_qpoly_b.json")),
         "cyclic_witt_mul_qpoly_1to8.json"),
    ],
)
def test_golden_vector_outputs(argv, golden):
    proc = run_cli(*argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDENS / golden).read_text(encoding="utf-8")


def test_goldens_are_deterministic():
    a = run_cli("group", "info", "--group", "S3")
    b = run_cli("group", "info", "--group", "S3")
    assert a.stdout == b.stdout


# --- exit codes ----------------------------------------------------------------


def test_unknown_group_exits_2(capsys):
    code, _, err = run_main(capsys, "group", "info", "--group", "X9")
    assert code == 2
    assert "SchemaError" in err


def test_named_group_outside_its_family_exits_2(capsys):
    # it once exited 3 with "group order 0 exceeds supported bound 24"
    code, out, err = run_main(capsys, "group", "info", "--group", "C0")
    assert (code, out, err) == (
        2, "", "SchemaError: no group 'C0': cyclic groups run from C1 to C24\n")
    code, _, err = run_main(capsys, "group", "info", "--group", "C25")
    assert (code, err) == (3, "OrderBoundExceeded: group order 25 exceeds supported bound 24\n")


def test_ring_flag_disagreement_exits_2(capsys, tmp_path):
    a = c2vec(tmp_path, "a.json", "Witt", ["1", "2"], ring="Z/4")
    code, _, err = run_main(capsys, "witt", "neg", a, "--ring", "Z")
    assert code == 2
    assert "disagrees" in err


def test_domain_error_exits_3(capsys, tmp_path):
    a = c2vec(tmp_path, "a.json", "Aperiodic", ["0", "1"])
    code, _, err = run_main(capsys, "theta", "--inverse", a)
    assert code == 3
    assert "NotInvertibleIndex" in err


def test_qpoly_beyond_its_bound_exits_3(capsys):
    code, out, err = run_main(capsys, "qpoly", "P", "--n", str(QPOLY_N_BOUND + 1))
    assert (code, out) == (3, "")
    assert err == f"DomainError: --n {QPOLY_N_BOUND + 1} exceeds supported bound {QPOLY_N_BOUND}\n"
    code, _, err = run_main(capsys, "qpoly", "tau", "--n", "100000")
    assert code == 3 and "DomainError" in err
    code, out, _ = run_main(capsys, "qpoly", "tau", "--n", str(QPOLY_N_BOUND))
    assert code == 0 and json.loads(out)["n"] == QPOLY_N_BOUND


def test_quniversal_beyond_its_bound_exits_3(capsys):
    over = QUNIVERSAL_N_BOUND + 1
    code, out, err = run_main(capsys, "quniversal", "--op", "prod", "--trunc", str(over))
    assert (code, out) == (3, "")
    assert err == (f"DomainError: truncation set member {over} exceeds supported bound "
                   f"{QUNIVERSAL_N_BOUND}\n")
    code, _, err = run_main(capsys, "quniversal", "--op", "sum", "--trunc-set", f"1,{over}")
    assert code == 3 and "DomainError" in err
    start = time.perf_counter()  # refused before div(N) factors N
    code, _, err = run_main(capsys, "quniversal", "--op", "sum", "--trunc", str(10 ** 18))
    assert code == 3 and "DomainError" in err
    assert time.perf_counter() - start < 2.0
    code, out, _ = run_main(capsys, "quniversal", "--op", "neg", "--trunc", str(QUNIVERSAL_N_BOUND))
    assert code == 0 and json.loads(out)["trunc"][-1] == QUNIVERSAL_N_BOUND


def test_symbolic_q_product_beyond_its_bound_exits_3_at_once(tmp_path):
    # the product solve on div(720) at the indeterminate q takes over 30 s;
    # the bound refuses it before the solve
    members = divisors(720)
    a = write_vec(tmp_path, "a.json", group={"cyclic_trunc": members}, labels=members,
                  flavor="Witt", ring="Q[q]",
                  components=["3" if i % 2 == 0 else "1/2" for i in range(len(members))])
    proc = subprocess.run([sys.executable, "-m", "wittburnside", "qwitt", "mul", "--q", "q", a, a],
                          capture_output=True, text=True, timeout=5)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == (f"DomainError: truncation set member 720 exceeds the bound "
                           f"{Q_SYMBOLIC_PROD_BOUND} of the product at the indeterminate q\n")


def test_flavor_mismatch_exits_2(capsys, tmp_path):
    a = c2vec(tmp_path, "a.json", "Necklace", ["0", "1"])
    code, _, err = run_main(capsys, "witt", "neg", a)
    assert code == 2
    assert "flavor" in err


def test_bad_labels_exit_2(capsys, tmp_path):
    a = write_vec(
        tmp_path,
        "a.json",
        group="C2",
        flavor="Witt",
        ring="Z",
        components=["1", "2"],
        labels=["1", "G"],
    )
    code, _, err = run_main(capsys, "witt", "neg", a)
    assert code == 2
    assert "labels" in err


def test_verify_pass_and_fault_exits(capsys):
    code, out, _ = run_main(capsys, "verify", "--suite", "diagrams", "--seed", "7")
    assert code == 0
    report = json.loads(out)
    assert report["failures"] == [] and report["cases_run"] > 0
    code, out, _ = run_main(
        capsys, "verify", "--suite", "diagrams", "--seed", "7", "--inject-fault"
    )
    assert code == 1
    report = json.loads(out)
    assert report["failures"][0]["case"] == "diagrams/sanity/identity-ghost"


def test_verify_reports_every_case_when_the_engine_refuses(capsys, monkeypatch):
    # a refusal inside a case once ended the run with exit 3 and no report;
    # now it is that case's failure, and every other case still runs
    from wittburnside import verify
    from wittburnside.errors import IntegralityViolation

    clean = run_suite("indres", 7)

    def refuse(G, ci, alpha):
        raise IntegralityViolation("induced Witt vector escaped Z at class 1")

    monkeypatch.setattr(verify, "witt_v", refuse)
    code, out, _ = run_main(capsys, "verify", "--suite", "indres", "--seed", "7")
    assert code == 1
    report = json.loads(out)
    assert report["cases_run"] == clean["cases_run"]
    uses = ("/ind-tau", "/ind-gamma", "/verschiebung-additive", "/ghost-of-v")
    assert {f["case"].rsplit("/", 1)[1] for f in report["failures"]} == {u[1:] for u in uses}
    assert all(f == {"case": f["case"], "error": "IntegralityViolation",
                     "message": "'induced Witt vector escaped Z at class 1'"}
               for f in report["failures"])


# --- compute verbs through files -----------------------------------------------


def test_necklace_mul_one_hot(capsys, tmp_path):
    a = c2vec(tmp_path, "a.json", "Necklace", ["0", "1"])
    code, out, _ = run_main(capsys, "necklace", "mul", a, a)
    assert code == 0
    assert json.loads(out)["components"] == ["0", "2"]


def test_group_flavor_products_write_no_cache_entry(tmp_path):
    # a product is a ghost solve (or the constant loop), never a derivation;
    # over Z the S3 aperiodic square meets a fractional constant (exit 3).  On
    # a truncation set the necklace and aperiodic products and Frobenius, also
    # in the q-model, are ghost solves too
    cache = tmp_path / "cache"
    cache.mkdir()
    labels = ["G", "3a", "2a", "1"]
    calls = [(["necklace", "mul", _inp("necklace_S3_a.json"), _inp("necklace_S3_b.json")], 0)]
    for ring, comps, code in (("Q", ["1/2", "2", "-1", "3"], 0), ("Z", ["1", "2", "-1", "3"], 3)):
        ap = write_vec(tmp_path, f"ap_{ring}.json", group="S3", flavor="Aperiodic", ring=ring,
                       components=comps, labels=labels)
        calls.append((["aperiodic", "mul", ap, ap], code))
    div6 = {"group": {"cyclic_trunc": [1, 2, 3, 6]}, "labels": [1, 2, 3, 6], "ring": "Z",
            "components": ["2", "-1", "3", "1"]}
    nr = write_vec(tmp_path, "nr_div6.json", flavor="Necklace", **div6)
    ap = write_vec(tmp_path, "ap_div6.json", flavor="Aperiodic", **div6)
    calls += [
        (["cyclic", "necklace", "mul", nr, nr], 0),
        (["cyclic", "frobenius", "--r", "2", ap], 0),
        (["qwitt", "mul", "--q", "2", nr, nr], 0),
        (["qwitt", "frobenius", "--q", "q", "--r", "2", _inp("aperiodic_div6_qq_a.json")], 0),
    ]
    for argv, code in calls:
        proc = subprocess.run([sys.executable, "-m", "wittburnside", *argv],
                              capture_output=True, text=True,
                              env=dict(os.environ, WB_CACHE_DIR=str(cache)))
        assert proc.returncode == code, proc.stderr
        assert os.listdir(cache) == [], argv


def test_ghost_of_one_hot_at_G(capsys, tmp_path):
    a = write_vec(
        tmp_path,
        "a.json",
        group="S3",
        flavor="Witt",
        ring="Z",
        components=["1", "0", "0", "0"],
        labels=["G", "3a", "2a", "1"],
    )
    code, out, _ = run_main(capsys, "ghost", "--flavor", "Witt", a)
    assert code == 0
    assert json.loads(out)["components"] == ["1", "1", "1", "1"]


def test_witt_mul_residue_ring(capsys, tmp_path):
    a = c2vec(tmp_path, "a.json", "Witt", ["3", "2"], ring="Z/4")
    b = c2vec(tmp_path, "b.json", "Witt", ["2", "3"], ring="Z/4")
    code, out, _ = run_main(capsys, "witt", "mul", "--ring", "Z/4", a, b)
    assert code == 0
    # lift-reduce oracle: (3,2)*(2,3) over Z is (6, 47) -> (2, 3) mod 4
    assert json.loads(out)["components"] == ["2", "3"]


def test_teichmuller_file_round_trip(capsys, tmp_path):
    a = write_vec(
        tmp_path,
        "a.json",
        group="S3",
        flavor="Witt",
        ring="Q",
        components=["1", "-2", "3", "5"],
        labels=["G", "3a", "2a", "1"],
    )
    code, out, _ = run_main(capsys, "teichmuller", a)
    assert code == 0
    tau = tmp_path / "tau.json"
    tau.write_text(out, encoding="utf-8")
    code, out, _ = run_main(capsys, "teichmuller", "--inverse", str(tau))
    assert code == 0
    assert json.loads(out)["components"] == ["1", "-2", "3", "5"]


def test_ind_res_file_flow(capsys, tmp_path):
    a = write_vec(
        tmp_path,
        "a.json",
        group="S3",
        flavor="Witt",
        ring="Z",
        components=["1", "-2", "3", "5"],
        labels=["G", "3a", "2a", "1"],
    )
    code, out, _ = run_main(capsys, "res", "--group", "S3", "--class", "3a", a)
    assert code == 0
    doc = json.loads(out)
    assert doc["group"] == "S3.3a" and doc["labels"] == ["G", "1"]
    sub = tmp_path / "sub.json"
    sub.write_text(out, encoding="utf-8")
    code, out, _ = run_main(capsys, "ind", "--group", "S3", "--class", "3a", str(sub))
    assert code == 0
    ind = json.loads(out)
    assert ind["group"] == "S3" and len(ind["components"]) == 4
    # wrong ambient flags for the subgroup file are a schema error
    code, _, err = run_main(capsys, "ind", "--group", "S3", "--class", "2a", str(sub))
    assert code == 2 and "does not match" in err


def test_cyclic_and_qwitt_flow(capsys, tmp_path):
    cyc = write_vec(
        tmp_path,
        "cyc.json",
        group={"cyclic_trunc": [1, 2, 3, 6]},
        flavor="Witt",
        ring="Z",
        components=["2", "-1", "3", "0"],
        labels=[1, 2, 3, 6],
    )
    code, out, _ = run_main(capsys, "cyclic", "ghost", cyc)
    assert code == 0
    assert json.loads(out)["components"] == ["2", "2", "17", "89"]
    code, out, _ = run_main(capsys, "cyclic", "frobenius", "--r", "2", cyc)
    assert code == 0
    doc = json.loads(out)
    assert doc["labels"] == [1, 3] and doc["components"] == ["2", "27"]
    code, out, _ = run_main(capsys, "qwitt", "ghost", "--q", "2", cyc)
    assert code == 0
    assert json.loads(out)["components"] == ["2", "6", "41", "2094"]
    code, out, _ = run_main(capsys, "qwitt", "teichmuller", "--q", "2", cyc)
    assert code == 0
    qtau = tmp_path / "qtau.json"
    qtau.write_text(out, encoding="utf-8")
    code, out, _ = run_main(
        capsys, "qwitt", "teichmuller", "--q", "2", "--inverse", str(qtau)
    )
    assert code == 0
    assert json.loads(out)["components"] == ["2", "-1", "3", "0"]


def test_symbolic_q_requires_rational_q_ring(capsys, tmp_path):
    sym = write_vec(
        tmp_path,
        "sym.json",
        group={"cyclic_trunc": [1, 2]},
        flavor="Witt",
        ring="Q[q]",
        components=["2", "-1"],
        labels=[1, 2],
    )
    code, out, _ = run_main(capsys, "qwitt", "ghost", "--q", "q", sym)
    assert code == 0
    assert json.loads(out)["components"] == ["2", "4*q^1+-2"]
    zvec = write_vec(
        tmp_path,
        "z.json",
        group={"cyclic_trunc": [1, 2]},
        flavor="Witt",
        ring="Z",
        components=["2", "-1"],
        labels=[1, 2],
    )
    code, _, err = run_main(capsys, "qwitt", "ghost", "--q", "q", zvec)
    assert code == 2 and "SchemaError" in err


def test_artinhasse_file_round_trip(capsys, tmp_path):
    cyc = write_vec(
        tmp_path,
        "cyc.json",
        group={"cyclic_trunc": [1, 2, 3, 6]},
        flavor="Witt",
        ring="Z",
        components=["2", "-1", "3", "0"],
        labels=[1, 2, 3, 6],
    )
    code, out, _ = run_main(capsys, "artinhasse", "--q", "2", cyc)
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "curve" and doc["degree"] == 6
    curve = tmp_path / "curve.json"
    curve.write_text(out, encoding="utf-8")
    code, out, _ = run_main(
        capsys, "artinhasse", "--q", "2", "--inverse", "--trunc-set", "1,2,3,6",
        str(curve),
    )
    assert code == 0
    assert json.loads(out)["components"] == ["2", "-1", "3", "0"]


def test_artinhasse_inverse_refuses_a_long_curve_before_its_default_set(capsys, tmp_path):
    # the default set 1..degree took about 5 s to build at degree 60000, and
    # minutes at 200000, before the degree was refused
    def curve(degree, ring="Z"):
        return write_vec(tmp_path, f"c{degree}{ring}.json", kind="curve", q=2, ring=ring,
                         degree=degree, coefficients=["0"] * degree)

    start = time.perf_counter()
    code, out, err = run_main(capsys, "artinhasse", "--q", "2", "--inverse", curve(60000))
    assert (code, out) == (3, "")
    assert err == (f"DomainError: truncation set member 60000 exceeds the bound "
                   f"{CURVE_DEGREE_BOUND} of the Artin-Hasse curves\n")
    assert time.perf_counter() - start < 2.0
    # the ring check still comes first, as in the library
    code, _, err = run_main(capsys, "artinhasse", "--q", "q", "--inverse", curve(200))
    assert code == 2 and "requires the Q[q] ring" in err
    code, out, _ = run_main(capsys, "artinhasse", "--q", "q", "--inverse",
                            curve(CURVE_DEGREE_BOUND, "Q[q]"))
    assert code == 0 and json.loads(out)["components"] == ["0"] * CURVE_DEGREE_BOUND


def test_coord_form_travels_through_files(capsys, tmp_path):
    a = c2vec(tmp_path, "a.json", "Witt", ["3", "5"], ring="Z/8")
    code, out, _ = run_main(capsys, "teichmuller", a)
    assert code == 0
    doc = json.loads(out)
    assert doc["coord_form"] is True and doc["flavor"] == "Necklace"
    tau = tmp_path / "tau.json"
    tau.write_text(out, encoding="utf-8")
    code, out, _ = run_main(capsys, "teichmuller", "--inverse", str(tau))
    assert code == 0
    assert json.loads(out)["components"] == ["3", "5"]


def _qcoords(tmp_path, capsys, q="2"):
    """`qwitt teichmuller --q q` of the Witt vector (2, 7, 3, 1) over Z/8 on div(6)."""
    w = write_vec(tmp_path, "w.json", group={"cyclic_trunc": [1, 2, 3, 6]}, flavor="Witt",
                  ring="Z/8", components=["2", "7", "3", "1"], labels=[1, 2, 3, 6])
    code, out, err = run_main(capsys, "qwitt", "teichmuller", "--q", q, w)
    assert code == 0, err
    path = tmp_path / f"tau{q}.json"
    path.write_text(out, encoding="utf-8")
    return json.loads(out), str(path)


def test_coordinate_backed_qwitt_document_records_its_q(capsys, tmp_path):
    doc, tau = _qcoords(tmp_path, capsys)
    assert doc["coord_form"] is True and doc["q"] == 2
    # the chain at another q once exited 0 with the coordinates unchanged
    code, out, err = run_main(capsys, "qwitt", "teichmuller", "--q", "3", "--inverse", tau)
    assert code == 2 and "SchemaError" in err and "q = 2" in err and out == "", err
    code, out, _ = run_main(capsys, "qwitt", "teichmuller", "--q", "2", "--inverse", tau)
    assert code == 0 and json.loads(out)["components"] == ["2", "7", "3", "1"]
    # the q-free verbs carry the recorded q into their output
    for argv in (("qwitt", "theta"), ("qwitt", "verschiebung", "--r", "2")):
        code, out, err = run_main(capsys, *argv, tau)
        assert code == 0 and json.loads(out)["q"] == 2, err
    # the indeterminate q lives in Q[q] only, so over Z/8 the map refuses it
    code, out, err = run_main(capsys, "qwitt", "teichmuller", "--q", "q", str(tmp_path / "w.json"))
    assert code == 2 and "requires the Q[q] ring, not Z/8" in err and out == "", err
    # two operands made at different q
    _, tau3 = _qcoords(tmp_path, capsys, "3")
    code, out, err = run_main(capsys, "qwitt", "mul", "--q", "2", tau, tau3)
    assert code == 2 and "q = 3" in err and out == "", err


@pytest.mark.parametrize(
    "argv",
    [
        ("qwitt", "neg", "--q", "2"),
        ("qwitt", "ghost", "--q", "2"),
        ("qwitt", "teichmuller", "--q", "2", "--inverse"),
        ("qwitt", "theta"),
        ("qwitt", "frobenius", "--q", "2", "--r", "2"),
        ("qwitt", "verschiebung", "--r", "2"),
    ],
)
@pytest.mark.parametrize("q", [None, "2", True, 2.0, [2]])
def test_coordinate_backed_qwitt_document_without_a_valid_q_exits_2(capsys, tmp_path, argv, q):
    doc, _ = _qcoords(tmp_path, capsys)
    if q is None:
        del doc["q"]
    else:
        doc["q"] = q
    path = write_vec(tmp_path, "bad.json", **doc)
    code, out, err = run_main(capsys, *argv, path)
    assert code == 2 and "SchemaError" in err and "q" in err and out == "", err


@pytest.mark.parametrize("argv", [("qwitt", "theta"), ("qwitt", "verschiebung", "--r", "2")])
def test_coordinate_backed_qwitt_document_at_the_indeterminate_q_needs_q_ring(capsys, tmp_path,
                                                                            argv):
    # the CLI writes no such document over Z/8; a hand-written one once passed
    # through the verbs that take no --q with exit 0
    doc, _ = _qcoords(tmp_path, capsys)
    doc["q"] = "q"
    path = write_vec(tmp_path, "qq.json", **doc)
    code, out, err = run_main(capsys, *argv, path)
    assert code == 2 and "SchemaError" in err and out == "", err
    assert "indeterminate q requires the Q[q] ring, not Z/8" in err


def test_subgroup_document_round_trips_through_ghost(capsys, tmp_path):
    a = write_vec(
        tmp_path,
        "a.json",
        group="S3",
        flavor="Witt",
        ring="Z",
        components=["1", "-2", "3", "5"],
        labels=["G", "3a", "2a", "1"],
    )
    code, out, _ = run_main(capsys, "res", "--group", "S3", "--class", "3a", a)
    assert code == 0 and json.loads(out)["group"] == "S3.3a"
    sub = tmp_path / "sub.json"
    sub.write_text(out, encoding="utf-8")
    code, out, err = run_main(capsys, "ghost", str(sub))
    assert code == 0, err
    doc = json.loads(out)
    assert doc["group"] == "S3.3a" and doc["flavor"] == "Ghost"
    assert doc["labels"] == ["G", "1"]
    # a subgroup descriptor also names the ambient group of a further restriction
    code, out, err = run_main(capsys, "res", "--group", "S3.3a", "--class", "1", str(sub))
    assert code == 0, err
    assert json.loads(out)["group"] == "S3.3a.1"


@pytest.mark.parametrize(
    "argv,trunc",
    [
        (("cyclic", "frobenius", "--r", "0"), [1, 2, 3, 6]),
        (("qwitt", "frobenius", "--q", "2", "--r", "0"), [1, 2, 3, 6]),
        (("cyclic", "verschiebung", "--r", "-1"), [1, 2, 3, 6]),
        (("qwitt", "verschiebung", "--r", "0"), [1, 2, 3, 6]),
        (("cyclic", "ghost"), "abc"),
        (("cyclic", "ghost"), 5),
        (("cyclic", "ghost"), [1, None]),
        (("qwitt", "ghost", "--q", "2"), [1, 2.5]),
    ],
)
def test_bad_operator_index_or_truncation_exits_2(capsys, tmp_path, argv, trunc):
    cyc = write_vec(
        tmp_path,
        "cyc.json",
        group={"cyclic_trunc": trunc},
        flavor="Witt",
        ring="Z",
        components=["2", "-1", "3", "0"],
        labels=[1, 2, 3, 6],
    )
    code, _, err = run_main(capsys, *argv, cyc)
    assert code == 2 and "SchemaError" in err, err


def test_cycle_notation_documents_round_trip(capsys, tmp_path):
    a = write_vec(
        tmp_path,
        "a.json",
        group="(1 2)",
        flavor="Witt",
        ring="Z",
        components=["3", "5"],
        labels=["G", "1"],
    )
    code, out, err = run_main(capsys, "witt", "neg", a)
    assert code == 0, err
    assert json.loads(out)["group"] == "(1 2)"
    neg = tmp_path / "neg.json"
    neg.write_text(out, encoding="utf-8")
    code, out, err = run_main(capsys, "witt", "neg", str(neg))
    assert code == 0, err
    assert json.loads(out)["components"] == ["3", "5"]
    # the second file's group must read as the first one's
    code, out, err = run_main(capsys, "witt", "add", a, a)
    assert code == 0, err
    c2 = c2vec(tmp_path, "c2.json", "Witt", ["3", "5"])
    code, want, _ = run_main(capsys, "witt", "add", c2, c2)
    assert code == 0 and json.loads(out)["components"] == json.loads(want)["components"]


def test_each_output_names_its_own_group_whatever_ran_before(capsys, tmp_path):
    # "(1 2)" and "C2" are one permutation group under two names; the memos
    # keyed on groups once answered the later name with the earlier one, in
    # one process, so both orders run here
    for name in ("(1 2)", "C2", "(1 2)"):
        docs = {flavor: write_vec(tmp_path, f"{flavor}.json", group=name, flavor=flavor, ring="Z",
                                  components=["3", "5"], labels=["G", "1"])
                for flavor in ("Witt", "Necklace")}
        for argv, group in ((("witt", "neg", docs["Witt"]), name),
                            (("necklace", "mul", docs["Necklace"], docs["Necklace"]), name),
                            (("res", "--group", name, "--class", "1", docs["Witt"]), name + ".1")):
            code, out, err = run_main(capsys, *argv)
            assert code == 0 and json.loads(out)["group"] == group, (argv, err)


def test_huge_truncation_members_exit_2_fast(capsys, tmp_path):
    cyc = write_vec(
        tmp_path,
        "cyc.json",
        group={"cyclic_trunc": [1, 10 ** 18]},
        flavor="Witt",
        ring="Z",
        components=["2", "-1"],
        labels=[1, 10 ** 18],
    )
    for argv in (
        ("cyclic", "ghost", cyc),
        ("quniversal", "--op", "sum", "--trunc-set", "1,1000000000000000000"),
    ):
        start = time.perf_counter()
        code, _, err = run_main(capsys, *argv)
        assert time.perf_counter() - start < 2.0
        assert code == 2 and "not divisor-closed" in err, err


def test_prime_member_beyond_the_primality_bound_exits_2_fast(capsys, tmp_path):
    # 2^89 - 1 is prime, but above 3.3e24 no fast test here proves it
    p = 2 ** 89 - 1
    cyc = write_vec(tmp_path, "cyc.json", group={"cyclic_trunc": [1, p]}, flavor="Witt",
                    ring="Z", components=["2", "-1"], labels=[1, p])
    start = time.perf_counter()
    code, out, err = run_main(capsys, "cyclic", "ghost", cyc)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "") and "no smaller member above 1 dividing it" in err, err


def test_numbers_beyond_the_digit_bound_exit_2_or_3(capsys, tmp_path):
    # a_1^16 = 10^4800 has no text form; 1e5000 and 1e9999999 are refused as text
    div16 = [1, 2, 4, 8, 16]
    big = write_vec(tmp_path, "big.json", group={"cyclic_trunc": div16}, flavor="Witt", ring="Z",
                    components=["1" + "0" * 300, "0", "0", "0", "0"], labels=div16)
    code, out, err = run_main(capsys, "cyclic", "ghost", big)
    assert (code, out) == (3, "") and err.startswith("DomainError: a number of more than 4300"), err
    for text in ("1e5000", "1e9999999"):
        q = c2vec(tmp_path, "q.json", "Witt", [text, "0"], ring="Q")
        start = time.perf_counter()
        code, out, err = run_main(capsys, "ghost", q)
        assert time.perf_counter() - start < 2.0
        assert (code, out) == (2, "") and "exceeds the digit bound 4300" in err, err
    fine = c2vec(tmp_path, "fine.json", "Witt", ["0", "1e4000"], ring="Q")
    code, out, err = run_main(capsys, "witt", "neg", fine)
    assert code == 0 and json.loads(out)["components"] == ["0", "-1" + "0" * 4000], err


def test_large_cycle_point_exits_2(capsys, tmp_path):
    a = write_vec(tmp_path, "a.json", group="(1 999999999999)", flavor="Witt", ring="Z",
                  components=["3", "5"], labels=["G", "1"])
    code, out, err = run_main(capsys, "ghost", a)
    assert (code, out) == (2, "") and "exceeds the point bound 10000" in err, err


def test_indeterminate_q_over_z_on_a_huge_member_exits_3(capsys, tmp_path):
    # the member bound is checked before the ring is asked for q
    big = 10 ** 18 + 9
    n = write_vec(tmp_path, "n.json", group={"cyclic_trunc": [1, big]}, flavor="Necklace",
                  ring="Z", components=["2", "3"], labels=[1, big])
    code, out, err = run_main(capsys, "qwitt", "mul", "--q", "q", n, n)
    assert (code, out) == (3, "") and err.startswith("DomainError: truncation set member"), err


def _input_doc(tmp_path, kind):
    """The file of one rejected-input case; every one is well formed JSON."""
    s3 = {"group": "S3", "labels": ["G", "3a", "2a", "1"], "components": ["1", "2", "3", "4"]}
    t6 = {"group": {"cyclic_trunc": [1, 2, 3, 6]}, "labels": [1, 2, 3, 6],
          "components": ["2", "-1", "3", "0"]}
    if kind == "curve3":
        return write_vec(tmp_path, "curve.json", kind="curve", q=2, ring="Z", degree=3,
                         coefficients=["1", "2", "3"])
    fields = {
        "group_witt_coords": dict(s3, flavor="Witt", coord_form=True),
        "cyclic_witt_coords": dict(t6, flavor="Witt", coord_form=True),
        "cyclic_necklace_coords": dict(t6, flavor="Necklace", coord_form=True),
        "cyclic_ghost": dict(t6, flavor="Ghost"),
    }[kind]
    return write_vec(tmp_path, f"{kind}.json", ring="Z", **fields)


# each case escaped as a ValueError traceback with exit 1, the verify-failure code
@pytest.mark.parametrize(
    "argv,kind,count",
    [
        (("witt", "neg"), "group_witt_coords", 1),
        (("ghost",), "group_witt_coords", 1),
        (("res", "--group", "S3", "--class", "2a"), "group_witt_coords", 1),
        (("cyclic", "witt", "neg"), "cyclic_witt_coords", 1),
        (("qwitt", "neg", "--q", "2"), "cyclic_witt_coords", 1),
        (("qwitt", "ghost", "--q", "2"), "cyclic_witt_coords", 1),
        (("qwitt", "frobenius", "--q", "2", "--r", "2"), "cyclic_witt_coords", 1),
        (("cyclic", "theta"), "cyclic_necklace_coords", 1),
        (("cyclic", "ghost"), "cyclic_necklace_coords", 1),
        (("cyclic", "frobenius", "--r", "2"), "cyclic_necklace_coords", 1),
        (("cyclic", "necklace", "add"), "cyclic_necklace_coords", 2),
        (("cyclic", "verschiebung", "--r", "2"), "cyclic_ghost", 1),
        (("qwitt", "verschiebung", "--r", "2"), "cyclic_ghost", 1),
        (("artinhasse", "--q", "2", "--inverse", "--trunc-set", "1,2"), "curve3", 1),
    ],
)
def test_unusable_input_exits_2(capsys, tmp_path, argv, kind, count):
    path = _input_doc(tmp_path, kind)
    code, out, err = run_main(capsys, *argv, *[path] * count)
    assert code == 2 and "SchemaError" in err and out == "", err


@pytest.mark.parametrize("value", ["false", 0, None])
def test_non_boolean_coord_form_exits_2(capsys, tmp_path, value):
    # a truthy non-boolean once read as coordinate-backed, and theta then
    # returned the components unscaled
    a = write_vec(tmp_path, "a.json", group="S3", flavor="Necklace", ring="Z",
                  components=["1", "2", "3", "4"], labels=["G", "3a", "2a", "1"],
                  coord_form=value)
    code, out, err = run_main(capsys, "theta", a)
    assert code == 2 and "coord_form" in err and out == "", err


# a zero or empty flag was once read as absent: `--trunc 0` fell through to
# "required" (artinhasse --inverse used its default set), `--trunc-set ""` too
@pytest.mark.parametrize(
    "argv,message",
    [
        (("quniversal", "--op", "sum", "--trunc", "0"), "div(N) needs N >= 1"),
        (("quniversal", "--op", "sum", "--trunc", "-3"), "div(N) needs N >= 1"),
        (("quniversal", "--op", "sum", "--trunc-set", ""), "--trunc-set must be a comma list of integers"),
        (("qwitt", "tryone", "--q", "2", "--trunc", "0"), "div(N) needs N >= 1"),
        (("qwitt", "tryone", "--q", "2", "--trunc-set", ""), "--trunc-set must be a comma list of integers"),
        (("artinhasse", "--q", "2", "--inverse", "--trunc", "0"), "div(N) needs N >= 1"),
    ],
)
def test_zero_or_empty_truncation_flag_exits_2(capsys, tmp_path, argv, message):
    curve = write_vec(tmp_path, "curve.json", kind="curve", q=2, ring="Z", degree=3,
                      coefficients=["1", "2", "3"])
    extra = (curve,) if argv[0] == "artinhasse" else ()
    code, out, err = run_main(capsys, *argv, *extra)
    assert (code, out, err) == (2, "", f"SchemaError: {message}\n")


@pytest.mark.parametrize("size", ["0", "-1"])
def test_verify_size_must_be_positive(capsys, size):
    # it once ran size 1 silently and exited 0
    code, out, err = run_main(capsys, "verify", "--suite", "diagrams", "--size", size)
    assert (code, out, err) == (2, "", "SchemaError: --size must be a positive integer\n")


def test_verify_size_above_its_bound_exits_3(capsys):
    # the cases grow linearly with --size, so 100000000 never ended
    code, out, err = run_main(capsys, "verify", "--suite", "diagrams", "--size", "100000000")
    assert (code, out, err) == (
        3, "", f"DomainError: --size 100000000 exceeds supported bound {SIZE_BOUND}\n")
    with pytest.raises(DomainError, match=f"^--size {SIZE_BOUND + 1} exceeds supported bound"):
        run_suite("diagrams", 7, SIZE_BOUND + 1)
    assert run_suite("qpolys", 7, SIZE_BOUND)["failures"] == []
    assert run_suite("diagrams", 7, 2)["failures"] == []


@pytest.mark.parametrize("size", [0, -5])
def test_run_suite_refuses_a_size_below_1(size):
    # the library once clamped it to 1 and ran 101 diagram cases
    with pytest.raises(SchemaError, match="^--size must be a positive integer$"):
        run_suite("diagrams", 7, size)
