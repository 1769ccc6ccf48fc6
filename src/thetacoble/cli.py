"""Command-line interface: enumerate combinatorial objects, evaluate theta
expressions, run verification suites, and export the explicit quartic formula.
"""

from __future__ import annotations

import json
import sys

import click

from . import quartics, suites
from .characteristics import Characteristic, enumerate_aronhold_sets, enumerate_characteristics
from .gopel import enumerate_gopel
from .theta import DEFAULT_TOL, PeriodMatrix, PhasePoint, _abs, theta, theta2


class _Main(click.Group):
    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ValueError as exc:  # bad input (genus, tau, z, char, seed, samples, tol) or domain
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Main)
def main():
    """Verification-grade theta combinatorics and quartic identities."""


def _emit(data, fmt: str):
    if fmt == "json":
        click.echo(json.dumps(data, indent=2))
    else:
        for item in data:
            click.echo(item if isinstance(item, str) else json.dumps(item))


@main.command("enumerate")
@click.argument("what", type=click.Choice(["even", "odd", "gopel", "fano", "pascal", "aronhold"]))
@click.option("--g", "genus", type=int, default=3, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "lines"]), default="json", show_default=True)
def enumerate_cmd(what, genus, fmt):
    """List characteristics, Goepel systems, or Aronhold sets."""
    if what in ("even", "odd"):
        data = enumerate_characteristics(genus, what).to_strings()
    elif what == "aronhold":
        if genus != 3:
            raise click.ClickException("Aronhold sets are a genus-3 notion")
        data = [s.to_strings() for s in enumerate_aronhold_sets()]
    else:
        systems = enumerate_gopel(genus)
        if what in ("fano", "pascal"):
            if genus != 3:
                raise click.ClickException("the Fano/Pascal split is a genus-3 notion")
            systems = [s for s in systems if s.kind == what]
        data = [s.to_json() for s in systems]
    _emit(data, fmt)


def _load_tau(path: str) -> PeriodMatrix:
    with open(path) as f:
        return PeriodMatrix.from_json(json.load(f))


def _load_z(path: str, g: int) -> PhasePoint:
    if path is None:
        return PhasePoint.zero(g)
    with open(path) as f:
        return PhasePoint.from_json(json.load(f))


def _normalized(value: complex, scale: float):
    """|value| / scale, or None when every term is 0 (as on the reducible
    locus, where all coefficients of the quartic vanish)."""
    return _abs(value) / scale if scale else None


@main.command("eval")
@click.argument("what", type=click.Choice(["theta", "theta2", "coble", "coble-grad", "kummer2"]))
@click.option("--tau", "tau_file", required=True, type=click.Path(exists=True),
              help='JSON file {"g": g, "re": [[..]], "im": [[..]]}')
@click.option("--z", "z_file", type=click.Path(exists=True),
              help='JSON file {"re": [..], "im": [..]}; defaults to z = 0')
@click.option("--char", "char_str", default=None,
              help='characteristic "abc;def" (theta) or top row "abc" (theta2)')
@click.option("--tol", type=float, default=DEFAULT_TOL, show_default=True)
def eval_cmd(what, tau_file, z_file, char_str, tol):
    """Evaluate a theta expression at (tau, z); prints a JSON record."""
    tau = _load_tau(tau_file)
    z = _load_z(z_file, tau.g)
    out = {"what": what, "g": tau.g}
    if what in ("theta", "theta2"):
        if char_str is None:
            raise click.ClickException(f"--char is required for {what}")
        char = Characteristic.from_string(char_str) if what == "theta" else char_str
        value = (theta if what == "theta" else theta2)(tau, z, char, tol)
        out["char"] = char_str
        out["value"] = [value.real, value.imag]
    elif what == "coble-grad":
        values, scales = quartics.coble_gradient(tau, z, tol)
        out["values"] = [[v.real, v.imag] for v in values]
        out["term_scales"] = scales
        out["normalized_residuals"] = [_normalized(v, s) for v, s in zip(values, scales)]
    else:  # coble, kummer2: one value and its term scale
        evaluate = quartics.coble_eval if what == "coble" else quartics.kummer2_eval
        value, scale = evaluate(tau, z, tol)
        out["value"] = [value.real, value.imag]
        out["term_scale"] = scale
        out["normalized_residual"] = _normalized(value, scale)
    click.echo(json.dumps(out, indent=2))


@main.command("verify")
@click.argument("suite", type=click.Choice(sorted(suites.SUITES) + ["all"]))
@click.option("--seed", type=int, default=1, show_default=True)
@click.option("--samples", type=int, default=0, help="0 = suite default")
@click.option("--tol", type=float, default=0.0, help="0 = suite default")
@click.option("--report", "report_file", type=click.Path(), default=None,
              help="write the JSON report to this file")
def verify_cmd(suite, seed, samples, tol, report_file):
    """Run a named verification suite; exit code 0 iff every check passes."""
    report = suites.run_suite(suite, seed=seed, samples=samples, tol=tol)
    payload = report.to_json()
    click.echo(f"suite={suite} seed={seed}")
    for rec in payload["records"]:
        status = "PASS" if rec["pass"] else "FAIL"
        error = f" ({rec['error']})" if "error" in rec else ""
        click.echo(f"  [{status}] {rec['name']}: value={rec['value']:.6g} "
                   f"threshold={rec['threshold']:.6g}{error}")
    click.echo(f"overall: {'PASS' if payload['pass'] else 'FAIL'} "
               f"({len(payload['records'])} checks, {payload['wall_time']:.1f}s)")
    if report_file:
        with open(report_file, "w") as f:
            json.dump(payload, f, indent=2)
    sys.exit(0 if payload["pass"] else 1)


@main.command("export")
@click.argument("what", type=click.Choice(["coble-formula"]))
@click.option("--out", "out_file", type=click.Path(), default=None)
def export_cmd(what, out_file):
    """Export the explicit quartic formula as integer records."""
    records = quartics.export_coble_formula()
    payload = {
        "records": records,
        "monomial_count": quartics.coble_monomial_count(),
    }
    text = json.dumps(payload, indent=2)
    if out_file:
        with open(out_file, "w") as f:
            f.write(text + "\n")
        click.echo(f"wrote {out_file}")
    else:
        click.echo(text)


if __name__ == "__main__":
    main()
