"""The README's library example runs and its commented values hold, and
every command of its CLI block parses."""

import re
import shlex
from pathlib import Path

import pytest

from szpirolab import bounds, cli
from szpirolab.weierstrass import AffinePoint, WeierstrassModel, point_order

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> dict:
    text = README.read_text()
    section = text.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    return namespace


def test_library_example_values():
    ns = library_example()
    inv = ns["inv"]
    assert (inv.c4, inv.c6, inv.delta) == (496, 20008, -161051)
    assert ns["N"] == 11
    assert round(ns["sigma"], 4) == 8.2605

    ca = ns["ca"]
    assert ca.mm.minimal == ns["m"] and ca.mm.scaling_u == 1
    iso = ca.mm.iso
    assert all(isinstance(c, int) for c in (iso.u, iso.r, iso.s, iso.t))
    assert ca.factorization == ((11, 5),)
    assert [(d.p, d.kodaira, d.fp) for d in ca.local] == [(11, "I5", 1)]
    assert (ca.conductor, ca.height) == (11, 20008**2)

    # y^2 - y = x^3 - x^2 with 5-torsion at (0, 0)
    assert ns["build_model"](ns["inst"]) == WeierstrassModel(0, -1, -1, 0, 0)
    assert point_order(WeierstrassModel(0, -1, -1, 0, 0), AffinePoint(0, 0)) == 5
    assert ns["u"] == 1
    assert ns["delta_eval"](ns["inst"], ns["u"]) == 11 == ns["N"]


def cli_commands() -> list[list[str]]:
    """The argument lists of the `szpirolab ...` lines of README's CLI block."""
    section = README.read_text().split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [
        shlex.split(line)[1:] for line in block.splitlines() if line.startswith("szpirolab ")
    ]


def test_cli_block_parses():
    commands = cli_commands()
    assert len(commands) == 12
    parser = cli.build_parser()
    for argv in commands:
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: {argv}")
        if args.command == "phi" and args.u != "all":
            # an unknown or inadmissible u raises ValidationError
            bounds.phi_spec(args.T, cli._parse_u(args.u))
