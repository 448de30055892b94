"""Every document the CLI writes, the CLI reads again.

Each seed document below is fed to every verb that reads its kind; each
vector or curve those verbs print is fed in turn to every verb of its kind.
The kind of a document is its model (a group, or a truncation set), its
flavor, its coordinate form and the q it records; a document with no
recorded q is read at q = 2, or at the indeterminate q over `Q[q]`.  A
reader may refuse the arithmetic (exit 3: a vector outside an image, a
non-integral constant) but never the document (exit 2).
"""
import json

import pytest

from wittburnside.cli import main
from wittburnside.groups import build_group
from wittburnside.universal import index_labels

OPERAND = object()  # stands for the document's path in an argv


def _group_readers(doc):
    flavor, group = doc["flavor"], doc["group"]
    argvs = []
    if flavor != "Ghost":
        family = flavor.lower()
        argvs += [(family, "add", OPERAND, OPERAND), (family, "mul", OPERAND, OPERAND),
                  (family, "neg", OPERAND), ("ghost", OPERAND)]
        argvs += {"Witt": [("teichmuller", OPERAND)],
                  "Necklace": [("teichmuller", "--inverse", OPERAND), ("theta", OPERAND)],
                  "Aperiodic": [("theta", "--inverse", OPERAND)]}[flavor]
    argvs += [("res", "--group", group, "--class", label, OPERAND) for label in doc["labels"]]
    if "." in group:  # a subgroup class, Base.label, as res writes it
        base, label = group.rsplit(".", 1)
        argvs.append(("ind", "--group", base, "--class", label, OPERAND))
    return argvs


def _truncation_readers(doc):
    flavor, members = doc["flavor"], doc["labels"]
    r = str(next((m for m in members if m > 1), 1))  # f_r of a set with a member r is not empty
    argvs = []
    if not doc.get("coord_form") and "q" not in doc:  # the cyclic verbs take no q
        if flavor != "Ghost":
            family = flavor.lower()
            argvs += [("cyclic", family, "add", OPERAND, OPERAND),
                      ("cyclic", family, "mul", OPERAND, OPERAND),
                      ("cyclic", family, "neg", OPERAND), ("cyclic", "ghost", OPERAND),
                      ("cyclic", "verschiebung", "--r", "2", OPERAND)]
            argvs += {"Witt": [], "Necklace": [("cyclic", "theta", OPERAND)],
                      "Aperiodic": [("cyclic", "theta", "--inverse", OPERAND)]}[flavor]
        argvs.append(("cyclic", "frobenius", "--r", r, OPERAND))
    q = str(doc["q"]) if "q" in doc else "q" if doc["ring"] == "Q[q]" else "2"
    if flavor != "Ghost":
        argvs += [("qwitt", op, "--q", q, *operands)
                  for op, operands in (("add", (OPERAND, OPERAND)), ("mul", (OPERAND, OPERAND)),
                                       ("neg", (OPERAND,)))]
        argvs += [("qwitt", "ghost", "--q", q, OPERAND),
                  ("qwitt", "verschiebung", "--r", "2", OPERAND)]
        argvs += {"Witt": [("qwitt", "teichmuller", "--q", q, OPERAND),
                           ("artinhasse", "--q", q, OPERAND)],
                  "Necklace": [("qwitt", "teichmuller", "--inverse", "--q", q, OPERAND),
                               ("qwitt", "theta", OPERAND)],
                  "Aperiodic": [("qwitt", "theta", "--inverse", OPERAND)]}[flavor]
    argvs.append(("qwitt", "frobenius", "--q", q, "--r", r, OPERAND))
    return argvs


def readers(doc):
    """Every argv that reads doc, with OPERAND where its path goes."""
    if doc.get("kind") == "curve":
        return [("artinhasse", "--inverse", "--q", str(doc["q"]), OPERAND)]
    if isinstance(doc["group"], str):
        return _group_readers(doc)
    return _truncation_readers(doc)


def kind(doc):
    """What decides which verbs read doc, and how they read it."""
    if doc.get("kind") == "curve":
        return ("curve", doc["ring"], doc["q"])
    return (json.dumps([doc["group"], doc["labels"]]), doc["flavor"], doc["ring"],
            doc.get("coord_form", False), doc.get("q"))


def group_doc(group, flavor, ring, components):
    labels = list(index_labels(build_group(group)))
    return {"schema_version": 1, "group": group, "flavor": flavor, "ring": ring,
            "components": components, "labels": labels}


def trunc_doc(members, flavor, ring, components):
    return {"schema_version": 1, "group": {"cyclic_trunc": members}, "flavor": flavor,
            "ring": ring, "components": components, "labels": members}


SEEDS = {
    "S3-witt-Z": group_doc("S3", "Witt", "Z", ["1", "-2", "3", "5"]),
    "S3-necklace-Q": group_doc("S3", "Necklace", "Q", ["1/2", "-2", "3", "5"]),
    "S3-aperiodic-Z": group_doc("S3", "Aperiodic", "Z", ["1", "2", "0", "-1"]),
    "S3-ghost-Z": group_doc("S3", "Ghost", "Z", ["6", "0", "2", "4"]),
    "C4-witt-Z/8": group_doc("C4", "Witt", "Z/8", ["3", "5", "7"]),
    "C2-witt-ZPoly": group_doc("C2", "Witt", "ZPoly(x,y)", ["x", "y-1"]),
    "div6-witt-Z": trunc_doc([1, 2, 3, 6], "Witt", "Z", ["2", "-1", "3", "0"]),
    "div6-necklace-Q": trunc_doc([1, 2, 3, 6], "Necklace", "Q", ["1/2", "-1", "3", "2"]),
    "div4-aperiodic-Z": trunc_doc([1, 2, 4], "Aperiodic", "Z", ["1", "2", "-3"]),
    "div6-witt-Z/8": trunc_doc([1, 2, 3, 6], "Witt", "Z/8", ["2", "7", "3", "1"]),
    "div4-witt-Qq": trunc_doc([1, 2, 4], "Witt", "Q[q]", ["2", "-1", "1/2"]),
}

# writers that read no document
EXTRA_WRITERS = {
    "S3-witt-Z": [("qwitt", "tryone", "--q", "2", "--trunc", "6")],
    "div4-witt-Qq": [("qwitt", "tryone", "--q", "q", "--trunc", "4", "--ring", "Q[q]")],
}


def run(capsys, tmp_path, argv, doc):
    path = tmp_path / f"in-{len(list(tmp_path.iterdir()))}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main([str(path) if a is OPERAND else a for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("seed", sorted(SEEDS))
def test_every_written_document_is_read_back(capsys, tmp_path, seed):
    """Three rounds: the seed's readers write the documents of the second
    round, whose readers write those of the third; one document per kind."""
    docs, seen, refused = [((), SEEDS[seed])], set(), []
    for round_ in range(3):
        written = []
        for writers, doc in docs:
            argvs = readers(doc) + (EXTRA_WRITERS.get(seed, []) if round_ == 0 else [])
            for argv in argvs:
                code, out, err = run(capsys, tmp_path, argv, doc)
                if code not in (0, 3):
                    refused.append((*writers, argv, code, err))
                elif code == 0 and round_ < 2:
                    new = json.loads(out)
                    if ("flavor" in new or new.get("kind") == "curve") and kind(new) not in seen:
                        seen.add(kind(new))
                        written.append(((*writers, argv), new))
        docs = written
    assert refused == []
    assert seen


def test_no_coordinate_document_is_written_at_the_indeterminate_q(capsys, tmp_path):
    # over Z/8 the Teichmueller map keeps Witt coordinates; at the
    # indeterminate q it refuses the ring, as every q-map that needs q does,
    # so it writes no document with "q": "q" that the q-maps would refuse
    code, out, err = run(capsys, tmp_path, ("qwitt", "teichmuller", "--q", "q", OPERAND),
                         SEEDS["div6-witt-Z/8"])
    assert (code, out) == (2, "")
    assert err == "SchemaError: indeterminate q requires the Q[q] ring, not Z/8\n"
