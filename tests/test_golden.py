"""Golden report payloads: refactors must not change what the CLI reports.

Each digest is the sha256 of the ``report`` payload dumped as JSON with
sorted keys (for ``orbit-graph``, of the DOT text), recorded before the
shared linear-algebra helpers were merged; the two ``--suite bijection``
digests were recorded before the quotient cotorsion pairs were walked as
closed sets; the last four are the digests the benchmark gates on
(perfbench/expected.json), recorded with the same hashing; the K = 12
``nakayama:m=4,n=4`` digest and the K = 9 ``nakayama:m=3,n=4`` bijection
digest were recorded before the mutation layer stored its answers and
took peel searches on both sides (the latter in a 40-minute run); the K = 10
``nakayama:m=5,n=3`` bijection digest was recorded before the engines' stored
answers moved behind one ``core.stored`` decorator; the K = 24
``enumerate-cp`` digest on ``nakayama:m=4,n=7``, the largest backend the
Nakayama cap admits, and the ``enumerate-tcp`` digest on
``nakayama:m=3,n=4`` were recorded from the reports of the code before
cotorsion-pair coverage was decided by minimal approximations, with
the always-empty ``unresolved`` and ``unresolved_constituents`` keys
dropped from those reports; the last three, an ``inspect-pair`` report and
two ``match-backends`` reports (K = 20, matched; K = 24, no match), were
recorded before the Ext^1 incidence moved into one mask table per
backend (``Backend.ext1_masks``); the last three, ``reduce``, ``mutate``
and ``orbit-graph`` on a ``nakayama:m=3,n=4`` twin pair with the nonzero
core {M(0,2)} and four quotient objects, were recorded before the
subquotient's objects were read as the middle class outside the core
rather than found by a pairwise isomorphism search.  The envelope
is not hashed, so schema and settings changes do not trip these checks;
any change to a verdict, a count, a label or a witness coordinate does.
"""

import hashlib
import json

import pytest

from cotor import cli

TCP = ["--backend", "nakayama:m=2,n=2", "--tcp", "trivial-hovey"]
CORE_TCP = [
    "--backend", "nakayama:m=3,n=4", "--tcp",
    "S=[M(0,2)];T=[M(0,1),M(0,2),M(0,3),M(1,1),M(2,3)];"
    "U=[M(0,1),M(0,2),M(0,3),M(1,1),M(2,3)];V=[M(0,2)]",
]

GOLDEN = [
    (
        ["verify", "--suite", "all", "--backend", "nakayama:m=2,n=3"],
        "d7fb458b56b1902e42d6ad924d58797d28c345945e587e88970c0e348e700d01",
    ),
    (
        ["verify", "--suite", "all", "--backend", "nakayama:m=3,n=2"],
        "e423e1a4bdfbbf99c34c3ff4bbb1c986f59785b822d593ff464845628edd5826",
    ),
    (
        ["verify", "--suite", "counts", "--backend", "polygon:N=6"],
        "e7b03c49c5936982570995793923e93a3de8636225ab67fd7b9cd1d617c0c745",
    ),
    (
        ["reduce"] + TCP,
        "1e927122a05b63771d1d9a733c7c717ce6f3242f5a1e0609f62586a64ec746f0",
    ),
    (
        ["mutate"] + TCP + ["--pair", "U=[S0];V=[S0]", "--k", "1"],
        "977cdd95487f6b37c7f943bf7f656ca71be47d8b6cf124fbf2f19186682cf95c",
    ),
    (
        ["orbit-graph"] + TCP,
        "e7af818d72b3fcd2a45b603785ad60aa7161fc4d26e88b0f930bbcf7fd8a0bbb",
    ),
    (
        ["verify", "--suite", "bijection", "--backend", "nakayama:m=3,n=3"],
        "57f5472bbe0b48cbe8a3a1176f11e09cb66f07ca1537fb82edf0a54b5da3ae7a",
    ),
    (
        ["verify", "--suite", "bijection", "--backend", "nakayama:m=1,n=6"],
        "fbbc4851750bd5e9763a4f263b70a34d191b2abfecd68289de9c35871fc49733",
    ),
    (
        ["verify", "--suite", "all", "--backend", "nakayama:m=2,n=4"],
        "4e2798b90334666a280c955cd69602b45eebb32eb36ad83863a719674f51601a",
    ),
    (
        ["verify", "--suite", "conditions", "--backend", "nakayama:m=3,n=4"],
        "698ebaba7d36e580935df33d342e44b243caafb99585fd4a25ca950b4d5dd01e",
    ),
    (
        ["verify", "--suite", "counts", "--backend", "nakayama:m=4,n=5"],
        "8b26d702c1d2ccf5e9defa564f9d24aa991a780d99cd542b15eedf37aa5cc1f6",
    ),
    (
        ["verify", "--suite", "counts", "--backend", "polygon:N=7"],
        "ede31eaa6572025b7524cd677928ec370a21ce4b77fe161a967574674ecc0a2a",
    ),
    (
        ["verify", "--suite", "all", "--backend", "nakayama:m=4,n=4"],
        "5cdae7f8b8bf4b017a02f5942bfde00afa34e92346a60c4010522583e195d9c3",
    ),
    (
        ["verify", "--suite", "bijection", "--backend", "nakayama:m=3,n=4"],
        "243df5b0ed293ea8532ae290674e2ec3bcebaf4f7529b02b482058879a4d0b58",
    ),
    (
        ["verify", "--suite", "bijection", "--backend", "nakayama:m=5,n=3"],
        "86132e2bf23d3c752b9000b87d9947da8dba0e372473b18d1dff8be1542a510a",
    ),
    (
        ["enumerate-cp", "--backend", "nakayama:m=4,n=7"],
        "71d010f4f00eb0fb716ff632e37061b82d81a72dbecb885390db09adaa46b1bf",
    ),
    (
        ["enumerate-tcp", "--concentric", "--hovey", "--cond-I", "--cond-II",
         "--cond-III", "--backend", "nakayama:m=3,n=4"],
        "6af8141b8662d251935059ce339de03eb607e01b4b0c8d31fd110bd511ef0c1e",
    ),
    (
        ["inspect-pair", "--backend", "nakayama:m=2,n=4",
         "--pair", "U=[M(0,1)];V=[M(0,1)]"],
        "6828b20687456b4f4119f29640ed12d8be0e301ae83c15c5cc4ce8f2e25ead48",
    ),
    (
        ["match-backends", "polygon:N=8", "polygon:N=8"],
        "1c2f26d7b15bc301e5ec79b2a304dcbf6dfe380735c1de92b911e488a1b1e54f",
    ),
    (
        ["match-backends", "nakayama:m=2,n=13", "nakayama:m=12,n=3"],
        "83b61b7670eed9302ad3404027e11cf0f4aaa97acd697ac17710448bed997c89",
    ),
    (
        ["reduce"] + CORE_TCP,
        "2e6436a067ac9e86235a08091fcfe4ea73a998a73d0ccccc7fd294cae52e1c0f",
    ),
    (
        ["mutate"] + CORE_TCP + ["--pair", "U=[M(0,1),M(0,2)];"
                                 "V=[M(0,1),M(0,2),M(0,3),M(2,3)]", "--k", "1"],
        "2fa56990977710ff46efc49f41e34279bf944fc342816951b089065dba025d98",
    ),
    (
        ["orbit-graph"] + CORE_TCP,
        "d75d8e1d72cf3cbe9448e204dba41b69278a957c74d74effdd7f42b4fd53af70",
    ),
]


@pytest.mark.parametrize(
    "argv,digest", GOLDEN, ids=[" ".join(argv) for argv, _ in GOLDEN]
)
def test_report_payload_matches_golden(argv, digest, capsys):
    rc = cli.main(argv)
    out = capsys.readouterr().out
    assert rc == 0
    if argv[0] == "orbit-graph":
        text = out
    else:
        text = json.dumps(json.loads(out)["report"], sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
