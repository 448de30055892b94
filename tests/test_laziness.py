"""The package's public names, and what a process loads to use them.

`PUBLIC` is `sorted(wittburnside.__all__)`: `from wittburnside import *`
and `dir(wittburnside)` must give these names.  A fresh interpreter runs
the code of a module only when something it does uses it: `import
wittburnside` runs none, and a CLI verb only the models it computes in.
"""
import ast
import json
import os
import pathlib
import subprocess
import sys

import wittburnside

PUBLIC = (
    "APERIODIC", "CyclicVector", "DomainError", "FiniteGroup", "GHOST", "IndexedVector",
    "MultiPoly", "NECKLACE", "QContext", "QPolynomial", "RingSpec", "RingValue", "SchemaError", "TruncatedCurve", "TruncationSet", "WITT",
    "ap_ghost", "ap_ghost_inv", "ap_op", "aperiodic_poly",
    "artin_hasse", "artin_hasse_inv", "build_group", "curve_add", "curve_mul", "curve_neg",
    "cyc_ap_mul", "cyc_ap_op", "cyc_frobenius", "cyc_ghost", "cyc_ghost_inv", "cyc_nr_mul",
    "cyc_nr_op", "cyc_theta", "cyc_theta_inv", "cyc_universal", "cyc_verschiebung",
    "cyc_witt_ghost", "cyc_witt_op", "delta_membership", "delta_reduce", "derive_universal",
    "divisors", "exp_M", "exp_S", "gamma", "gamma_inv", "ghost_F", "ghost_nu", "ind_ap",
    "ind_nr", "is_integral", "is_numerical", "marks_matrix", "mobius", "necklace_poly",
    "nr_ghost", "nr_ghost_inv", "nr_op", "p_poly", "parse_ring", "q_ap_mul", "q_ap_op",
    "q_aperiodic_poly", "q_frobenius", "q_ghost", "q_ghost_inv", "q_necklace_poly",
    "q_nr_mul", "q_nr_op", "q_teichmuller", "q_teichmuller_inv", "q_universal",
    "q_verschiebung", "q_witt_ghost", "q_witt_op", "res_ap", "res_nr",
    "structure_constants", "subgroup_classes", "subgroup_group", "tau_q", "teichmuller",
    "teichmuller_inv", "theta", "theta_inv", "theta_q", "theta_q_inv", "try_one",
    "wg_ghost", "wg_op", "witt_f", "witt_v", "zeta_mu_q",
)


def test_all_is_pinned():
    assert tuple(sorted(wittburnside.__all__)) == PUBLIC


def test_star_import_gives_the_public_names():
    ns = {}
    exec("from wittburnside import *", ns)
    del ns["__builtins__"]
    assert tuple(sorted(ns)) == PUBLIC
    assert all(ns[name] is getattr(wittburnside, name) for name in PUBLIC)


def test_dir_lists_the_public_names():
    assert set(PUBLIC) <= set(dir(wittburnside))


# --- what a fresh process loads --------------------------------------------------

# the package's modules whose code has run: a module that importlib's
# LazyLoader registered stays a subclass of ModuleType until it is first used
RAN = ("sorted(n for n, m in sys.modules.items() "
       "if n.startswith('wittburnside.') and type(m) is types.ModuleType)")


def fresh(code):
    out = subprocess.run([sys.executable, "-c", f"import sys, types\n{code}\nprint({RAN})"],
                         capture_output=True, text=True, env=dict(os.environ, WB_CACHE_DIR=""))
    assert out.returncode == 0, out.stderr
    return ast.literal_eval(out.stdout.splitlines()[-1])


def test_import_loads_no_submodule():
    assert fresh("import wittburnside") == []
    assert fresh("import wittburnside\nassert set(dir(wittburnside)) >= set(%r)" % (PUBLIC,)) == []


def test_submodules_are_attributes_loaded_on_first_access():
    names = ("burnside", "cyclic", "errors", "groups", "qdeform", "rings", "universal")
    assert set(names) <= set(dir(wittburnside))
    code = "import wittburnside\nassert wittburnside.rings.ZZ.name == 'Z'"
    assert fresh(code) == ["wittburnside.errors", "wittburnside.rings"]
    code = "import wittburnside\n" + "".join(f"wittburnside.{n}.__name__\n" for n in names)
    assert set(fresh(code)) >= {f"wittburnside.{n}" for n in names}


def test_a_name_loads_its_module_and_what_that_imports():
    assert fresh("from wittburnside import parse_ring") == ["wittburnside.errors",
                                                            "wittburnside.rings"]


def run_cli(*argv, code=0, report=RAN):
    """What report reads (the modules whose code ran) in `python -m
    wittburnside ARGV`, run in a fresh interpreter, as the entry point calls
    os._exit, which must be with code."""
    script = ("import os, runpy\n"
              f"sys.argv = ['wittburnside', *{argv!r}]\n"
              "def exit_at_once(code, _exit=os._exit):\n"
              f"    assert code == {code!r}, code\n"
              f"    print({report}, flush=True)\n"
              "    _exit(0)\n"
              "os._exit = exit_at_once\n"
              "runpy.run_module('wittburnside', run_name='__main__', alter_sys=True)")
    return fresh(script)


def test_group_verbs_load_no_other_model(tmp_path):
    doc = {"schema_version": 1, "group": "C6", "flavor": "Witt", "ring": "Z",
           "components": ["3", "5", "-2", "1"], "labels": ["G", "3a", "2a", "1"]}
    path = tmp_path / "a.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for argv in (("group", "info", "--group", "C6"), ("witt", "mul", str(path), str(path))):
        ran = run_cli(*argv)
        assert "wittburnside.burnside" in ran
        for name in ("verify", "cyclic", "qdeform"):
            assert f"wittburnside.{name}" not in ran, (argv, name)


def test_a_q_verb_loads_the_q_model_but_not_verify():
    ran = run_cli("quniversal", "--op", "neg", "--trunc", "2")
    assert "wittburnside.qdeform" in ran and "wittburnside.verify" not in ran


# the standard-library modules that parsing with argparse loads
ARGPARSE = ("argparse", "gettext", "locale")
LOADED = f"sorted(n for n in {ARGPARSE!r} if n in sys.modules)"
GOLDENS = pathlib.Path(__file__).resolve().parent / "goldens"


def test_a_plain_command_line_is_parsed_without_argparse():
    a, b = (str(GOLDENS / "inputs" / f"witt_D4_{x}.json") for x in "ab")
    for argv in (("group", "info", "--group", "C6"), ("witt", "mul", a, b),
                 ("quniversal", "--op", "neg", "--trunc", "2")):
        assert run_cli(*argv, report=LOADED) == [], argv


def test_help_and_usage_errors_still_load_argparse():
    cases = json.loads((GOLDENS / "cli_usage.json").read_text(encoding="utf-8"))["cases"]
    for argv in (("witt", "--help"), ("witt", "mul")):
        code = cases[" ".join(argv)]["code"]
        assert "argparse" in run_cli(*argv, code=code, report=LOADED), argv
