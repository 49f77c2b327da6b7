"""Literal pins of the stream, chunk and request content-addresses.

Chunk stores and campaign manifests persist these hex digests, so a
change to how requests canonicalise (memoisation, a faster serialiser,
moving the code between layers) must leave every one of them where it
is.  Each row is ``(request, stream, chunk (r=3, y=5), request address
of years [2, 4) of realization 1)``.
"""

import pytest

from repro.scenarios.campaign import plan_campaign
from repro.scenarios.components import GHGRamp
from repro.scenarios.registry import resolve_scenario
from repro.scenarios.spec import ScenarioSpec
from repro.serving import FieldRequest, chunk_address

SSP_HIGH = (
    "5b45d832eb4bba3c6d925e24b120d733c2b16319ff5ef1b12a23594895bbd54e",
    "fcc162541e5e97bf78985302a9d3c5e774618cf1b956b4b479f46a4469a1ddaf",
    "49de3c1a4722d955d22f73bd208e461f9345575a4567f4f210d43a912631ac21",
)

PINS = {
    "name": (lambda: FieldRequest("ssp-high"), SSP_HIGH),
    "alias": (lambda: FieldRequest("ssp5-8.5"), SSP_HIGH),
    "spec": (lambda: FieldRequest(resolve_scenario("ssp-high")), SSP_HIGH),
    "no_nugget": (lambda: FieldRequest("ssp-high", include_nugget=False), (
        "d072116cb69191e143b1d8cbd9c0d1c7aa4d3dceb0dc61b72d05f46c1cc310d1",
        "31b7aa63616253b77c39bd118fbb6642b458ba89df398faec38f39579b3c4a05",
        "45d265d6e67ec79a039ba9fa845c58a8694f55f3005c179d68e630bde6a575cb",
    )),
    "start_level": (lambda: FieldRequest("constant", start_level=3.25), (
        "580b4bc929f4d9cd804bf9f9db4e83f110775fe4d8644f9184e4246de4dc8801",
        "7b56a369cc593e2f14996b52a0ecbf34b50c85b5ae6bce8277eae464b54e19b0",
        "6ee25e5ecef75563e2319319140b9b518a92474859c22f56294112cc9448da63",
    )),
    "historical": (lambda: FieldRequest("historical"), (
        "f4bc4ebfd7ab731b4f642be42f0762fe7ee7f59c9c4ae15dedcdd040fb2f6f7d",
        "4c48e5edde574995d565b8f510964279f7a9f6e0da7973ab0037e12ffc29a199",
        "1f19b7602ccbdba5d350aba39092ae96cf7a674bcab03e55cd690f76431992d4",
    )),
    # Equal specs (2 == 2.0, so the two compare and hash equal) with
    # different canonical JSON: the addresses differ, whichever comes first.
    "base_int": (lambda: FieldRequest(ScenarioSpec("x", (GHGRamp(base=2),))), (
        "cfcb51ed61249b19579112fed6589081a95da2f24dc4f49520e46d373dfec446",
        "a23956b138da4eac8e884fee11132b65dc550d70316d9ae5140cfb7b9e9d1ff6",
        "66afcbbff83e47d48cbf11518ae1be565a53929976a7c33221e92af5c2adfe38",
    )),
    "base_float": (lambda: FieldRequest(ScenarioSpec("x", (GHGRamp(base=2.0),))), (
        "3bde25a3f73c4efee4c4d8335b282344aa72a9a9ba7464da8f1328e4b65fb1dc",
        "13d9deeab2cf3e72f52af1f91547af4f1195215d390a1c6bd96daa2ca6b4b5b3",
        "b68026e0ed9a2f7a1b0cfbbcd646a253afeca96fcbd25905595da379d1c09eab",
    )),
}


def _addresses(request: FieldRequest) -> tuple[str, str, str]:
    stream = request.stream_address()
    wide = FieldRequest(
        request.scenario, realization=1, year_start=2, year_stop=4,
        include_nugget=request.include_nugget, start_level=request.start_level,
    )
    return stream, chunk_address(stream, 3, 5), wide.address()


@pytest.mark.parametrize("case", sorted(PINS))
def test_addresses_are_pinned(case):
    make, expected = PINS[case]
    # Twice: the second answer may come from a memo and must not differ.
    assert _addresses(make()) == expected
    assert _addresses(make()) == expected


@pytest.mark.parametrize("order", [("base_int", "base_float"), ("base_float", "base_int")])
def test_equal_specs_keep_their_own_addresses_in_either_order(order):
    for case in order:
        make, expected = PINS[case]
        assert _addresses(make()) == expected


def test_campaign_plans_carry_the_pinned_stream_addresses():
    plans = plan_campaign(
        ["ssp-high", ScenarioSpec("x", (GHGRamp(base=2),))],
        2, n_times=24, steps_per_year=12, store_root="unused",
    )
    by_scenario = {plan.scenario: plan.stream_address for plan in plans}
    assert by_scenario == {
        "ssp-high": SSP_HIGH[0], "x": PINS["base_int"][1][0],
    }
    plans = plan_campaign(
        ["ssp-high"], 1, n_times=24, steps_per_year=12,
        include_nugget=False, store_root="unused",
    )
    assert plans[0].stream_address == PINS["no_nugget"][1][0]
