"""Curve-preserving parameter maps: two models of one curve, one analysis.

Each map below sends a family's parameters to another instance of the same
family whose model is a model of the same curve (for the cyclic families a
diamond operator; for C2xC2 also the choice of the 2-torsion point at the
origin).  The two models must then agree on everything that belongs to the
curve: the minimal invariants, the conductor, the height, the local data at
every prime, sigma_m and the exact ratio decision.  That makes the maps an
oracle for minimal_model and Tate's algorithm across models.  C3, C4, C6
and C2xC6 have no map here.
"""

import math

import pytest

from szpirolab.bounds import exceeds, szpiro_ratio
from szpirolab.families import ValidationError, build_model, validate_params
from szpirolab.reduction import analyze
from szpirolab.sweeps import iter_param_tuples

MAPS = {
    "C2": [lambda a, b, d: (a, -b, d)],
    "C2xC2": [lambda a, b, d: (-a, -b, -d), lambda a, b, d: (a, a - b, -d)],
    "C5": [lambda a, b: (-b, a)],
    "C7": [lambda a, b: (b, b - a)],
    "C9": [lambda a, b: (b, b - a)],
    "C8": [lambda a, b: (a, a - b)],
    "C12": [lambda a, b: (a, a - b)],
    "C10": [lambda a, b: (a - 2 * b, a - b)],
    "C2xC4": [lambda a, b: (4 * a, -a - 4 * b)],
    "C2xC8": [lambda a, b: (2 * a, -a - 2 * b)],
}
# The image is signed so that a > 0, except where d carries the sign ...
SIGNED_BY_D = {"C2", "C2xC2"}
# ... and divided by the gcd of its entries where the map can leave one.
REDUCED = {"C10", "C2xC4", "C2xC8"}

BOX = 8


def _image(name: str, sigma, params: tuple[int, ...]) -> tuple[int, ...]:
    image = sigma(*params)
    if name not in SIGNED_BY_D and image[0] < 0:
        image = tuple(-v for v in image)
    if name in REDUCED:
        g = math.gcd(*image)
        image = tuple(v // g for v in image)
    return image


def _curve_facts(instance) -> tuple:
    model = build_model(instance)
    ca = analyze(model)
    inv = ca.mm.invariants
    return (
        (inv.c4, inv.c6),
        ca.conductor,
        ca.height,
        tuple((d.p, d.fp, d.kodaira, d.semistable) for d in ca.local),
        szpiro_ratio(model),
        exceeds(model, instance.family.l),
    )


@pytest.mark.parametrize("name", MAPS)
def test_image_is_a_model_of_the_same_curve(name):
    instances = 0
    pairs = 0
    for params in iter_param_tuples(name, BOX):
        try:
            instance = validate_params(name, *params)
        except ValidationError:
            continue
        instances += 1
        facts = _curve_facts(instance)
        for sigma in MAPS[name]:
            image = _image(name, sigma, params)
            try:
                mapped = validate_params(name, *image)
            except ValidationError:
                continue
            pairs += 1
            assert _curve_facts(mapped) == facts, (name, params, image)
    # In this box every image is a valid instance.
    assert instances > 0
    assert pairs == instances * len(MAPS[name])
