"""Byte-identity of the CLI's outputs: the sha256 of stdout for fixed invocations.

Each hash was recorded from the code before a refactor that must not change
any output, and holds after it.  The list covers every subcommand, both
formats, a non-uniform law, the seeded Monte Carlo and simulate paths
(including two sample blocks at p = 2^61 - 1), vectors above one functional
block and above the typical set's sort bound, and `bounds` on both sides of
EXACT_COUNT_MAX_N.  A change that alters an output on purpose records the
new hash here and says why in CHANGES.md.
"""

import hashlib
import io
import shlex
from contextlib import redirect_stderr, redirect_stdout

import pytest

from cdgproc.cli import main
from cdgproc.stats import event_probabilities

GOLDEN = [
    ("evolve --p 101 --steps 12",
     "86111b2b9f5d17e3bc085eaea3d9b830b6815f91917b18777b843ff55b5f6f4f"),
    ("evolve --p 101 --steps 12 --format json",
     "300ff0d5fe1357dc636b32e588dcaab8d2bfe4344c54cc40c64171344ee2bf04"),
    ("evolve --p 1009 --steps 20 --dist 0.2,0.5,0.3",
     "2228c17d81d72854e72b05d5a27200629f71439f26573f405a8342936084736c"),
    ("evolve --p 100003 --steps 24 --format json",
     "0ce6dbfcffce1933a0cf8892a2677dfb4d43bd0ca769830dcf20f4f369624645"),
    ("evolve --p 70001 --steps 20 --dist 0.2,0.5,0.3 --delta 0.05",
     "8e3e2316aff3e6fd34eeeec80c3dea8c3df025a20e52b98361833062bef255cf"),
    ("scan --primes 3,101,1009,10007",
     "361016fd73e99fedbcdc60a0a8a63920c8382619cd47bfbc6f81f38c7dbead64"),
    ("scan --primes 101,1009 --format json",
     "fb54b0aba4eec37c6d82ca2974046f413e11c020cf1350f975a825568760ee98"),
    ("scan --p-min 3 --p-max 200 --dist 1/4,1/4,1/2",
     "ab65f3ab067830a3e59499505997125133ce21c6a3013e2e08cd7d9bc08d4789"),
    ("canon 00+-0+0+-++",
     "a07e9ced38599bcdc6a9bc520542222475e9750864a863cb3e3517ff67124117"),
    ("canon -- -0+-00+0-",
     "4509baa3c6ab9731bb1e481040d29db090abe25f91c77dd8689acd5ca92c6559"),
    ("stats --mode exhaustive --n 9",
     "874910864d6668c5053c11253048012e35ae88e7f254b4d8f0cee394d4c6f55c"),
    ("stats --mode exhaustive --n 14 --format csv",
     "d7398103a2e8caec391f4ccbd6a87c4a90f90c0ac358e244411b49579037a433"),
    ("stats --mode exhaustive --n 9 --cls first_minus_one",
     "2bf034620ad5b8571ef2ac39213c35a28be3f42712cdc04e2079841bf6019b25"),
    ("stats --mode mc --n 2 --trials 70000 --seed 1",
     "5bf6ad5f360c2b69e133b182542bc96082cb824f459d26d993ad2f55146dcc77"),
    ("stats --mode mc --n 20 --trials 5000 --seed 7 --format csv",
     "cac49d8ca31477a9371cb1633c98ca6216362289f94b4a7a0aa298ee7edbaef6"),
    ("stats --mode mc --n 100000 --trials 3 --seed 2",
     "d56701102243acea939943f2524706c4e0f3b474f5917c18b9c5ffc97c50d946"),
    ("bounds",
     "cdabc9f05906a442dc6579752c19186f95cd45d3cff7967cbf5f07d1c6515bdf"),
    ("bounds --n 20 --eps 0.02",
     "58c56d41a79881d33739d703b3182c8275d56dcb900c5282a427a9f5bf42411a"),
    ("bounds --n 2000",
     "e06665c388d7410310760cba03b4861e175bc21404271b1ba9bf5cec1b91b562"),
    ("bounds --n 2002 --eps 0.01",
     "a1e31b92894203a7ae54c324c7ad5edd8cf1b6b054d44ca630e0e952ade63021"),
    ("bounds --n 20000",
     "9bf33f5d0a13bd1462acc783d4641cc0a4a938871aada6d7aee091a970256a78"),
    ("simulate --p 1000003 --steps 60 --trials 20000 --seed 5",
     "aad4e9ce13bf710c98801cb696495db38ba54f5dc881593dfef92d3abffa140d"),
    ("simulate --p 101 --steps 30 --trials 5000 --seed 3 --dist 0.2,0.5,0.3 --format csv",
     "307f6fde078276a5545614e05d7267dbbe17f3e6c1f5e43e280bdeed2524c4c8"),
    ("simulate --p 2305843009213693951 --steps 5 --trials 1048600 --seed 9",
     "9a74fe14c59e39ca03a149830ea26da3ca940c3e84d997c7c5f69ba3eacc4aaa"),
]

EVENT_SHA256 = "a364267677cba167efa2522992883b45eeda6ec91f343060297667f0720c94b6"


def _event_repr() -> str:
    return repr(event_probabilities(horizon=6, trials=40, seed=11))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[argv for argv, _ in GOLDEN])
def test_cli_output_is_unchanged(argv, digest):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(shlex.split(argv))
    assert code == 0, err.getvalue()
    assert _sha256(out.getvalue()) == digest


def test_event_probabilities_are_unchanged():
    # the third seeded loop: trial t on child t, the class strings on child `trials`
    assert _sha256(_event_repr()) == EVENT_SHA256
