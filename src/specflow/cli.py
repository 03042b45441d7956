"""Command-line entry point.

One experiment per invocation; subcommands cover the crossing count (sf),
Toeplitz indices, eta invariants and the eta route to the crossing count,
family index classes (higher-sf), the twisted-loop index (mapping-torus),
plaquette Chern numbers, and eigenvalue-trajectory plots.

Exit codes: 0 on success with all stability flags true, 2 on configuration
or schema errors, 3 on numerical-instability errors (partial results are
still emitted).  A stability flag is emitted only where a check backs it:
``index_equals_sf`` (``toeplitz --check-sf``) and ``match``
(``mapping-torus``).  ``SPECFLOW_THREADS`` caps the linear-algebra thread
pools and must be honored before numpy loads, hence the lazy imports below.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def _cap_threads():
    cap = os.environ.get("SPECFLOW_THREADS")
    if cap:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ.setdefault(var, cap)


def _add_global_flags(parser, suppress: bool):
    d = argparse.SUPPRESS if suppress else None

    def default(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument("--k", type=int, default=default(16),
                        help="Fourier truncation: modes -K..K")
    parser.add_argument("--tol", type=float, default=default(None),
                        help="relative singular-value cutoff (rank_rtol) "
                             "for every subcommand; echoed in the record")
    parser.add_argument("--out", type=str, default=default(None),
                        help="write the full result record to this JSON file")
    parser.add_argument("--json", action="store_true", default=default(False),
                        help="print the full result record, not just outputs")
    parser.add_argument("--debug-matrices", action="store_true",
                        default=default(False),
                        help="include raw matrices in the record (row-major "
                             "complex pair lists); never emitted otherwise")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specflow",
        description="spectral flow, Toeplitz indices, eta invariants, and "
                    "index bundles for circle operators")
    _add_global_flags(parser, suppress=False)
    # the same flags on a suppressed parent, so they may follow the
    # subcommand without clobbering values given before it
    common = argparse.ArgumentParser(add_help=False)
    _add_global_flags(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sf", parents=[common],
                       help="spectral flow of a potential curve")
    p.add_argument("--curve", required=True)
    p.add_argument("--cutoff0", type=float, default=0.0)
    p.add_argument("--cutoff1", type=float, default=0.0)
    p.add_argument("--csv", type=str, default=None,
                   help="also write the sampled spectra table")

    p = sub.add_parser("toeplitz", parents=[common], help="Fredholm index of a Hardy "
                                        "compression")
    p.add_argument("--symbol", required=True)
    p.add_argument("--check-sf", action="store_true",
                   help="also compute the conjugation-path spectral flow")

    p = sub.add_parser("eta", parents=[common], help="eta invariant of the shifted model")
    p.add_argument("--model", choices=["shifted"], default="shifted")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--method", choices=["hurwitz", "heat"], default="hurwitz")

    p = sub.add_parser("eta-sf", parents=[common], help="crossing count from the reduced-eta "
                                      "profile of a shifted path")
    p.add_argument("--path", nargs=2, type=float, required=True,
                   metavar=("A0", "A1"))
    p.add_argument("--samples", type=int, default=128)

    p = sub.add_parser("higher-sf", parents=[common], help="K-class of the conjugation path "
                                         "of a symbol family")
    p.add_argument("--family", required=True)
    p.add_argument("--base", default=None,
                   help="override the base declared in the family file")

    p = sub.add_parser("mapping-torus", parents=[common], help="index of the twisted loop "
                                             "operator")
    p.add_argument("--path", required=True)
    p.add_argument("--glue", default=None)
    p.add_argument("--mu", type=int, default=64)

    p = sub.add_parser("chern", parents=[common], help="plaquette Chern number of a builtin "
                                     "projector family")
    p.add_argument("--builtin", choices=["qwz"], default="qwz")
    p.add_argument("--m0", type=float, default=1.0)
    p.add_argument("--base", default="torus:12")

    p = sub.add_parser("plot", parents=[common], help="eigenvalue-trajectory SVG of a curve")
    p.add_argument("--curve", required=True)
    p.add_argument("--svg", required=True)
    p.add_argument("--samples", type=int, default=129)
    p.add_argument("--csv", type=str, default=None)
    return parser


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        from .errors import ConfigError
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def _load_curve(path: str, k: int, tolerances):
    """The payload of the curve file at ``path`` and its curve, at
    truncation K and the rank of its symbols; the payload is checked
    against the curve schema before the rank is read from it."""
    from . import jsonio
    from .operators import FourierTruncation
    payload = _load_json(path)
    jsonio.validate(payload, jsonio.CURVE_SCHEMA, "curve")
    trunc = FourierTruncation(k, payload["samples"][0]["symbol"]["rank"])
    return payload, jsonio.curve_from_json(payload, trunc, tolerances)


def _base_config(args) -> dict:
    """The flags every subcommand echoes; ``tol`` only when given."""
    config = {"command": args.command, "k": args.k}
    if args.tol is not None:
        config["tol"] = args.tol
    return config


def _run(args) -> tuple[dict, dict, dict]:
    """Returns (config echo, outputs, stability flags)."""
    from .basegrid import BaseGrid
    from .config import DEFAULT
    from .errors import ConfigError
    from .operators import FourierTruncation
    from . import jsonio

    config = _base_config(args)
    tolerances = DEFAULT if args.tol is None \
        else DEFAULT.with_(rank_rtol=args.tol)

    if args.command == "sf":
        from .flow import spectral_flow_result
        payload, curve = _load_curve(args.curve, args.k, tolerances)
        config.update(curve=payload, cutoff0=args.cutoff0, cutoff1=args.cutoff1)
        res = spectral_flow_result(curve, args.cutoff0, args.cutoff1,
                                   tolerances)
        if args.csv:
            from .plotting import spectra_csv
            spectra_csv(curve, args.csv)
        outputs = {"sf": res.sf, "partitions": res.partitions,
                   "min_gap": res.min_gap}
        if args.debug_matrices:
            outputs["debug"] = {
                "endpoint_matrices": [jsonio.matrix_to_json_debug(
                    curve.at(t, tolerances).matrix) for t in (0.0, 1.0)]}
        return config, outputs, {}

    if args.command == "toeplitz":
        from .flow import spectral_flow
        from .operators import gauge_transformed_potential
        from .toeplitz import (fredholm_index, hardy_section,
                               toeplitz_compress, winding)
        payload = _load_json(args.symbol)
        symbol = jsonio.symbol_from_json(payload)
        config.update(symbol=payload)
        trunc = FourierTruncation(args.k, symbol.rank)
        t = toeplitz_compress(hardy_section(trunc, tolerances), symbol, trunc,
                              tolerances)
        idx = fredholm_index(t, tolerances)
        wind = winding(symbol, tolerances=tolerances)
        outputs = {"index": idx, "winding": wind.winding,
                   "raw_integral": wind.raw_integral}
        if args.debug_matrices:
            outputs["debug"] = {"compression": jsonio.matrix_to_json_debug(
                t.matrix)}
        stability = {}
        if args.check_sf:
            from .flow import OperatorCurve
            pot = gauge_transformed_potential(symbol)
            curve = OperatorCurve.from_potentials(
                [0.0, 0.5, 1.0],
                [pot.scale(0.0), pot.scale(0.5), pot],
                trunc, tolerances)
            sf = spectral_flow(curve, tolerances=tolerances)
            outputs["sf"] = sf
            stability["index_equals_sf"] = (sf == idx)
        return config, outputs, stability

    if args.command == "eta":
        from .eta import eta_heat, eta_shifted_derivative, shifted_model_spectrum
        config.update(model=args.model, a=args.a, method=args.method)
        if args.method == "hurwitz":
            val = eta_shifted_derivative(args.a)
        else:
            val = eta_heat(shifted_model_spectrum(args.a),
                           tolerances=tolerances)
        return config, {"eta": val.eta, "reduced": val.reduced,
                        "kernel_dim": val.kernel_dim}, {}

    if args.command == "eta-sf":
        from .eta import shifted_path_profile, sf_via_eta_result
        a0, a1 = args.path
        config.update(a0=a0, a1=a1, samples=args.samples)
        res = sf_via_eta_result(shifted_path_profile(a0, a1), args.samples,
                                tolerances)
        return config, {"sf": res.sf, "integral": -res.smooth_integral,
                        "endpoints": res.endpoint_difference}, {}

    if args.command == "higher-sf":
        from .bundles import (CurveOfFamilies, aps_section_family,
                              higher_spectral_flow)
        from .operators import gauge_transformed_potential
        payload = _load_json(args.family)
        if args.base:
            payload = dict(payload, base=args.base)
        base, fam = jsonio.family_from_json(payload)
        config.update(family={"base": payload["base"],
                              "builtin": payload.get("builtin"),
                              "vertices": len(base.vertices)})
        rank = next(iter(fam.values())).rank
        trunc = FourierTruncation(args.k, rank)
        pots = {v: gauge_transformed_potential(fam[v]) for v in base.vertices}
        curve_fam = CurveOfFamilies.from_potentials(
            base, lambda v, t: pots[v].scale(t), [0.0, 0.5, 1.0], trunc,
            tolerances)
        q0 = aps_section_family(curve_fam.family_at(0.0, tolerances),
                                tolerances=tolerances)
        q1 = aps_section_family(curve_fam.family_at(1.0, tolerances),
                                tolerances=tolerances)
        cls = higher_spectral_flow(curve_fam, q0, q1, tolerances)
        outputs = {"ch0": cls.ch0}
        if base.is_torus:
            outputs["ch1"] = cls.ch1
        outputs.update(cls.meta)
        return config, outputs, {}

    if args.command == "mapping-torus":
        from .flow import spectral_flow
        from .mapping_torus import (TwistedLoopSpec, build_mapping_torus,
                                    index)
        payload, curve = _load_curve(args.path, args.k, tolerances)
        glue = None
        config.update(path=payload, mu=args.mu)
        if args.glue:
            gpayload = _load_json(args.glue)
            glue = jsonio.symbol_from_json(gpayload)
            config.update(glue=gpayload)
        spec = TwistedLoopSpec(curve, glue)
        op = build_mapping_torus(spec, args.mu, tolerances)
        idx = index(op, tolerances=tolerances)
        sf = spectral_flow(curve, tolerances=tolerances)
        return config, {"index": idx, "sf": sf, "match": idx == sf}, \
            {"match": idx == sf}

    if args.command == "chern":
        from .bundles import chern_number
        from .models import qwz_projector_family
        base = BaseGrid.parse(args.base)
        config.update(builtin=args.builtin, m0=args.m0, base=args.base)
        fam = qwz_projector_family(base, args.m0, tolerances)
        c = chern_number(fam, tolerances)
        return config, {"chern": c}, {}

    if args.command == "plot":
        from .plotting import plot_spectrum, spectra_csv
        payload, curve = _load_curve(args.curve, args.k, tolerances)
        config.update(curve=payload, svg=args.svg, samples=args.samples)
        crossings = plot_spectrum(curve, args.svg, args.samples)
        if args.csv:
            spectra_csv(curve, args.csv, args.samples)
        return config, {"svg": args.svg, "crossings": len(crossings),
                        "upward": sum(1 for c in crossings if c.direction > 0),
                        "downward": sum(1 for c in crossings
                                        if c.direction < 0)}, {}

    raise ConfigError(f"unknown command {args.command!r}")


def _to_builtin(value):
    import numpy as np
    if isinstance(value, dict):
        return {k: _to_builtin(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_builtin(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    return value


def main(argv=None) -> int:
    _cap_threads()
    parser = build_parser()
    args = parser.parse_args(argv)

    from . import __version__
    from .errors import ConfigError, SpecflowError
    from .jsonio import config_hash

    started = time.time()
    try:
        config, outputs, stability = _run(args)
        error = None
    except (ConfigError, ValueError, OSError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    except SpecflowError as exc:
        config = _base_config(args)
        outputs, stability = {}, {"stable": False}
        error = f"{type(exc).__name__}: {exc}"

    record = {
        "config": _to_builtin(config),
        "config_hash": config_hash(_to_builtin(config)),
        "outputs": _to_builtin(outputs),
        "stability": _to_builtin(stability),
        "error": error,
        "version": __version__,
        "wall_time_s": round(time.time() - started, 6),
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.json:
        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        print(json.dumps(_to_builtin(outputs), sort_keys=True))
    if error is not None:
        print(json.dumps({"error": error}), file=sys.stderr)
        return 3
    return 0 if all(bool(v) for v in stability.values()) else 3


if __name__ == "__main__":
    sys.exit(main())
