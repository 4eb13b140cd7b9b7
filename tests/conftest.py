from __future__ import annotations

from pathlib import Path
from types import SimpleNamespace

import pytest

from poslink import (
    Diagram,
    braid_closure,
    conway,
    jones_V,
    khovanov_homology,
    parse_braid,
    parse_pd,
    survey_corpus,
)
from reference import Skein

DATA_DIR = Path(__file__).parent / "data"

TREFOIL_PD = "PD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,3]]"
MIRROR_TREFOIL_PD = "PD[X[4,2,5,1],X[6,4,1,3],X[2,6,3,5]]"
# positive 7-crossing diagram of 7_4 (the (3,1,3) pretzel)
SEVEN4_PD = (
    "PD[X[5,14,6,1],X[13,6,14,7],X[7,12,8,13],X[1,8,2,9],"
    "X[9,4,10,5],X[3,10,4,11],X[11,2,12,3]]"
)
# trefoil after one R2 move (braid insertion of sigma_1 sigma_1^-1)
PERTURBED_TREFOIL_BRAID = "strands=2; 1 1 1 1 -1"
# trefoil after two stabilizations (R1 kinks)
STABILIZED_TREFOIL_BRAID = "strands=4; 1 1 1 2 3"


def mirror(d: Diagram) -> Diagram:
    """The same diagram with every crossing switched."""
    od = Skein.of(d)
    for k in range(d.crossing_count):
        od = od.switch(k)
    return od.to_diagram()


def lucas(n: int) -> int:
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


@pytest.fixture(scope="session")
def unknot():
    return parse_pd("PD[O[]]")


@pytest.fixture(scope="session")
def trefoil():
    return parse_pd(TREFOIL_PD)


@pytest.fixture(scope="session")
def mirror_trefoil():
    return parse_pd(MIRROR_TREFOIL_PD)


@pytest.fixture(scope="session")
def seven4():
    return parse_pd(SEVEN4_PD)


@pytest.fixture(scope="session")
def hopf():
    return braid_closure(parse_braid("strands=2; 1 1"))


@pytest.fixture(scope="session")
def perturbed_trefoil():
    return braid_closure(parse_braid(PERTURBED_TREFOIL_BRAID))


@pytest.fixture(scope="session")
def stabilized_trefoil():
    return braid_closure(parse_braid(STABILIZED_TREFOIL_BRAID))


@pytest.fixture(scope="session")
def survey_data():
    """Deduplicated positive braid closures (strands <= 3, length <= 8)
    with their invariants, computed once per session."""
    entries = []
    for word, diagram in survey_corpus(3, 8):
        entries.append(
            SimpleNamespace(
                word=word,
                diagram=diagram,
                jones=jones_V(diagram),
                conway=conway(diagram),
                kh=khovanov_homology(diagram),
            )
        )
    return entries
