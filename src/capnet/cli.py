"""Command-line front end: spec files in, canonical JSON/CSV reports out.

Exit codes: 0 on success, 1 when a run is rejected numerically (an unstable
step size, for instance), 2 on usage or spec errors.  Identical invocations
with identical seeds produce byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import logging
import os
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .analyze import erf_profile, shatter_analysis, uniform_path_weight
from .augment import Activation, decoupling_nu, estimate_nu_monte_carlo
from .core import ProjectionMatrix, SpatialCapacity
from .deeplimit import DeepLimitConfig, ResidualGenerator, StabilityError, compare_markov_pde
from .jsonfmt import canonical_dump, canonical_dumps
from .oracle import ExperimentConfig, empirical_spatial_capacity
from .propagate import (
    LayerChain,
    PropagationOperator,
    differential_propagation_matrix,
    propagate_chain,
    propagation_matrix,
)

__all__ = ["NetworkSpec", "SpecError", "load_network_spec", "main"]

log = logging.getLogger("capnet")

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}

# The residual walk's options, which pde and erf take, and their defaults.
_WALK_DEFAULTS = {"n": 201, "eps": 0.1, "L": 100, "D": 1.0, "v": 0.0, "boundary": "periodic"}

_LAYER_KEYS = {"kind", "n_in", "n_out", "activation", "weights", "eps"}
# The n_in x n_out float64 operators of a spec's chain, together.  Building one
# takes up to 4x its size at once, so a spec stays within about 2 GiB.
_SPEC_OPERATOR_BUDGET_BYTES = 512 * 2**20


class SpecError(ValueError):
    """A network spec that cannot be built as written."""


@dataclass(frozen=True)
class NetworkSpec:
    """A parsed architecture document plus the objects built from it."""

    document: dict
    chain: LayerChain
    top: SpatialCapacity
    seeds: Tuple[int, ...]

    def spec_hash(self) -> str:
        return hashlib.sha256(canonical_dumps(self.document).encode()).hexdigest()


def _parse_weight_matrix(entry: dict, seeds: List[int]) -> np.ndarray:
    text = entry["weights"]
    n_in, n_out = entry["n_in"], entry["n_out"]
    if text.startswith("random_gaussian:"):
        try:
            seed = int(text.split(":", 1)[1])
        except ValueError:
            raise SpecError(f"bad seed in {text!r}") from None
        if seed < 0:
            raise SpecError(f"seed in {text!r} must be non-negative")
        seeds.append(seed)
        return np.random.default_rng(seed).standard_normal((n_in, n_out))
    try:
        matrix = np.loadtxt(text, delimiter=",", ndmin=2)
    except OSError:
        raise SpecError(f"cannot read weights file {text!r}") from None
    except ValueError as exc:
        raise SpecError(f"weights file {text!r} is not numeric: {exc}") from None
    if matrix.shape != (n_in, n_out):
        raise SpecError(
            f"weights are {matrix.shape[0]}x{matrix.shape[1]}, spec says {n_in}x{n_out}"
        )
    return matrix


def _build_layer(entry, seeds: List[int], spare_bytes: int) -> PropagationOperator:
    """One layer's operator; its errors are prefixed with the layer's index by the caller."""
    if not isinstance(entry, dict):
        raise SpecError("each layer must be an object")
    unknown = set(entry) - _LAYER_KEYS
    if unknown:
        raise SpecError(f"unknown fields {sorted(unknown)}")
    for key in ("kind", "n_in", "n_out", "weights"):
        if key not in entry:
            raise SpecError(f"missing field {key!r}")
    kind, weights = entry["kind"], entry["weights"]
    if kind not in ("dense", "residual", "differential"):
        raise SpecError(f"unknown kind {kind!r}")
    if not isinstance(weights, str):
        raise SpecError("weights must be a string")
    n_in, n_out = entry["n_in"], entry["n_out"]
    if not all(type(size) is int and size > 0 for size in (n_in, n_out)):
        raise SpecError("n_in and n_out must be positive integers")
    if 8 * n_in * n_out > spare_bytes:
        raise SpecError(
            f"its {n_in}x{n_out} operator takes the chain past the "
            f"{_SPEC_OPERATOR_BUDGET_BYTES // 2**20} MiB spec operator limit"
        )
    if "activation" in entry and not isinstance(entry["activation"], str):
        raise SpecError(f"activation must be a string, got {entry['activation']!r}")

    if weights.startswith("uniform:"):
        if kind == "differential":
            raise SpecError("uniform weights cannot be differential")
        if "activation" in entry:
            raise SpecError("uniform weights take no activation")
        if n_in != n_out:
            raise SpecError("uniform weights need n_in == n_out")
        try:
            r = int(weights.split(":", 1)[1])
        except ValueError:
            raise SpecError(f"bad window in {weights!r}") from None
        return PropagationOperator.uniform_window(n_in, r)

    if weights.startswith("residual:"):
        if kind != "residual":
            raise SpecError("residual weights need kind residual")
        if "activation" in entry:
            raise SpecError("residual weights take no activation")
        if n_in != n_out:
            raise SpecError("residual weights need n_in == n_out")
        parts = weights.split(":", 1)[1].split(",")
        if len(parts) != 3:
            raise SpecError(f"expected residual:<eps>,<v>,<D>, got {weights!r}")
        try:
            eps, v, dcoef = (float(p) for p in parts)
        except ValueError:
            raise SpecError(f"non-numeric residual parameters in {weights!r}") from None
        return ResidualGenerator(n_in, v, dcoef).step(eps)

    projection = ProjectionMatrix.from_raw(_parse_weight_matrix(entry, seeds))
    if kind == "residual":
        raise SpecError("kind residual needs residual:<eps>,<v>,<D> weights")
    if kind == "differential":
        if "eps" not in entry:
            raise SpecError("differential layers need eps")
        eps = entry["eps"]
        if isinstance(eps, bool) or not isinstance(eps, (int, float)):
            raise SpecError(f"eps must be a number, got {eps!r}")
    elif "activation" not in entry:
        raise SpecError("dense layers need an activation")
    # D = P o P holds under total decoupling, so it describes pseudo_random layers only
    activation = Activation.parse(entry.get("activation", "pseudo_random"))
    if activation.kind != "pseudo_random":
        raise SpecError(
            f"activation {activation.kind!r} has no closed-form chain propagation; "
            "only pseudo_random is eligible"
        )
    if kind == "differential":
        return differential_propagation_matrix(projection, eps)
    return propagation_matrix(projection)


def _parse_top_capacity(value, n: int) -> SpatialCapacity:
    if isinstance(value, str):
        if value == "uniform":
            return SpatialCapacity(np.full(n, 1.0 / n))
        if value.startswith("dirac:"):
            try:
                idx = int(value.split(":", 1)[1])
            except ValueError:
                raise SpecError(f"bad top_capacity {value!r}") from None
            if not 0 <= idx < n:
                raise SpecError(f"top_capacity index {idx} out of range [0, {n})")
            return SpatialCapacity.dirac(n, idx)
        raise SpecError(f"bad top_capacity {value!r}")
    if isinstance(value, list):
        if len(value) != n:
            raise SpecError(f"top_capacity has {len(value)} entries, chain needs {n}")
        try:
            return SpatialCapacity(np.asarray(value, dtype=float))
        except (TypeError, ValueError) as exc:
            raise SpecError(f"bad top_capacity: {exc}") from None
    raise SpecError("top_capacity must be a vector, dirac:<index>, or uniform")


def parse_network_spec(document) -> NetworkSpec:
    """Validate an architecture document and build its chain and probe."""
    if not isinstance(document, dict):
        raise SpecError("spec must be a JSON object")
    unknown = set(document) - {"layers", "top_capacity"}
    if unknown:
        raise SpecError(f"unknown fields {sorted(unknown)}")
    layers_doc = document.get("layers")
    if not isinstance(layers_doc, list) or not layers_doc:
        raise SpecError("spec needs a non-empty layers list")
    if "top_capacity" not in document:
        raise SpecError("spec needs top_capacity")
    seeds: List[int] = []
    layers: List[PropagationOperator] = []
    spare_bytes = _SPEC_OPERATOR_BUDGET_BYTES
    for i, entry in enumerate(layers_doc):
        try:
            layers.append(_build_layer(entry, seeds, spare_bytes))
        except StabilityError as exc:
            raise StabilityError(f"layer {i}: {exc}") from None
        except ValueError as exc:
            raise SpecError(f"layer {i}: {exc}") from None
        spare_bytes -= layers[-1].matrix.nbytes
    try:
        chain = LayerChain(layers)
    except ValueError as exc:
        raise SpecError(str(exc)) from None
    top = _parse_top_capacity(document["top_capacity"], chain.n_out)
    return NetworkSpec(document=document, chain=chain, top=top, seeds=tuple(seeds))


def load_network_spec(path: str) -> NetworkSpec:
    try:
        with open(path, "r") as handle:
            document = json.load(handle)
    except OSError:
        raise SpecError(f"cannot read spec file {path!r}") from None
    except json.JSONDecodeError as exc:
        raise SpecError(f"spec file {path!r} is not valid JSON: {exc}") from None
    return parse_network_spec(document)


@contextlib.contextmanager
def _output(path: Optional[str]):
    """A text handle on ``path``, or on stdout when no path is given."""
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", newline="\n") as handle:
            yield handle


def _emit_json(doc: object, path: Optional[str]) -> None:
    with _output(path) as handle:
        canonical_dump(doc, handle)
        handle.write("\n")


def _write_profiles_csv(profiles: Sequence[SpatialCapacity], path: Optional[str]) -> None:
    with _output(path) as handle:
        handle.write("layer,coordinate,kappa\n")
        for layer, profile in enumerate(profiles):
            for coordinate, kappa in enumerate(profile.values.tolist()):
                handle.write(f"{layer},{coordinate},{kappa!r}\n")


def cmd_nu(args) -> int:
    activation = Activation.parse(args.activation)
    log.info("decoupling scale for %s", activation.spec())
    if args.mc is None:
        _emit_json({"nu": decoupling_nu(activation)}, args.out)
        return 0
    _emit_json(estimate_nu_monte_carlo(activation, args.mc, args.seed), args.out)
    return 0


def cmd_chain(args) -> int:
    spec = load_network_spec(args.specfile)
    log.info("propagating through %d layers", len(spec.chain))
    profiles = propagate_chain(spec.chain, spec.top)
    report = {
        "metadata": {
            "seeds": list(spec.seeds),
            "spec_hash": spec.spec_hash(),
            "version": __version__,
        },
        "profiles": [list(p.values) for p in profiles],
        "totals": [p.total for p in profiles],
    }
    _emit_json(report, args.out)
    if args.csv is not None:
        _write_profiles_csv(profiles, args.csv)
    return 0


def _residual_walk(args) -> Tuple[ResidualGenerator, DeepLimitConfig]:
    """The walk of pde and erf, with each option not given set to its default."""
    vars(args).update({k: v for k, v in _WALK_DEFAULTS.items() if getattr(args, k) is None})
    generator = ResidualGenerator(args.n, args.v, args.D, args.boundary)
    return generator, DeepLimitConfig(eps=args.eps, L=args.L)


def cmd_pde(args) -> int:
    generator, cfg = _residual_walk(args)
    probe = args.probe if args.probe is not None else args.n // 2
    kappa = SpatialCapacity.dirac(args.n, probe)
    log.info("pde comparison: n=%d eps=%g L=%d", args.n, args.eps, args.L)
    _emit_json(compare_markov_pde(generator, cfg, kappa, refinements=args.refinements), args.out)
    return 0


def cmd_erf(args) -> int:
    if args.specfile is not None:
        for option in _WALK_DEFAULTS:
            if getattr(args, option) is not None:
                raise SpecError(f"--{option} cannot be combined with a spec file")
        source = load_network_spec(args.specfile).chain
        cfg, n, depth = None, source.n_out, len(source)
    else:
        source, cfg = _residual_walk(args)
        n, depth = args.n, args.L
    if args.ratio_depth is not None and not 1 <= args.ratio_depth <= depth:
        raise SpecError(f"ratio depth must be in [1, {depth}]")
    probe = args.probe if args.probe is not None else n // 2
    report = doc = erf_profile(source, probe, cfg)
    if args.ratio_depth is not None:
        # per_depth_std[k] is the width after k layers below the probe
        width = report.per_depth_std[args.ratio_depth][1]
        if width == 0:
            raise SpecError(
                f"width {args.ratio_depth} layers below the probe is 0; width_ratio is undefined"
            )
        ratio = report.per_depth_std[-1][1] / width
        doc = dict(vars(report), ratio_depth=args.ratio_depth, width_ratio=ratio)
    _emit_json(doc, args.out)
    return 0


def _parse_uniform_tokens(tokens: Sequence[str]) -> Tuple[int, int]:
    values = {}
    for token in tokens:
        name, _, raw = token.partition("=")
        if name not in ("r", "L") or not raw:
            raise SpecError(f"expected r=<int> and L=<int>, got {token!r}")
        try:
            values[name] = int(raw)
        except ValueError:
            raise SpecError(f"expected r=<int> and L=<int>, got {token!r}") from None
    if set(values) != {"r", "L"}:
        raise SpecError("uniform mode needs both r=<int> and L=<int>")
    return values["r"], values["L"]


def cmd_shatter(args) -> int:
    if (args.specfile is None) == (args.uniform is None):
        raise SpecError("shatter needs a spec file or --uniform r=<int> L=<int>")
    if args.uniform is not None:
        for option in ("r", "eps"):
            if getattr(args, option) is not None:
                raise SpecError(f"--{option} cannot be combined with --uniform")
        r, depth = _parse_uniform_tokens(args.uniform)
        _emit_json({"L": depth, "r": r, "uniform_weight": uniform_path_weight(r, depth)}, args.out)
        return 0
    spec = load_network_spec(args.specfile)
    r = args.r if args.r is not None else spec.chain.n_in
    _emit_json(shatter_analysis(spec.chain, r, eps=args.eps), args.out)
    return 0


def cmd_verify(args) -> int:
    selector = tuple(int(part) for part in args.selector.split(","))
    weights = np.random.default_rng(args.seed).standard_normal((args.n, args.m))
    config = ExperimentConfig(
        p=ProjectionMatrix.from_raw(weights),
        activation=Activation.parse(args.activation),
        param_selector=selector,
        n_samples=args.mc,
        seed=args.seed,
    )
    log.info("verification run: n=%d m=%d N=%d", args.n, args.m, args.mc)
    report = empirical_spatial_capacity(config)
    _emit_json(report.to_dict(), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capnet",
        description="Capacity allocation analyses for layered networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_nu = sub.add_parser("nu", help="decoupling scale of an activation")
    p_nu.add_argument("activation")
    p_nu.add_argument("--mc", type=int, help="Monte Carlo sample count")
    p_nu.add_argument("--seed", type=int, default=0)
    p_nu.add_argument("--out")
    p_nu.set_defaults(handler=cmd_nu)

    p_chain = sub.add_parser("chain", help="propagate a capacity profile")
    p_chain.add_argument("specfile")
    p_chain.add_argument("--out")
    p_chain.add_argument("--csv")
    p_chain.set_defaults(handler=cmd_chain)

    # the residual walk that pde and erf both run, defaulted by _residual_walk
    walk = argparse.ArgumentParser(add_help=False)
    walk.add_argument("--n", type=int)
    walk.add_argument("--eps", type=float)
    walk.add_argument("--L", type=int)
    walk.add_argument("--D", type=float)
    walk.add_argument("--v", type=float)
    walk.add_argument("--boundary", choices=["periodic", "reflecting"])
    walk.add_argument("--probe", type=int)

    p_pde = sub.add_parser(
        "pde", parents=[walk], help="Markov chain against the diffusion closed form"
    )
    p_pde.add_argument("--refinements", type=int, default=2)
    p_pde.add_argument("--out")
    p_pde.set_defaults(handler=cmd_pde)

    p_erf = sub.add_parser("erf", parents=[walk], help="effective receptive field widths")
    p_erf.add_argument("specfile", nargs="?")
    p_erf.add_argument("--ratio-depth", type=int, dest="ratio_depth")
    p_erf.add_argument("--out")
    p_erf.set_defaults(handler=cmd_erf)

    p_shatter = sub.add_parser("shatter", help="path-weight analysis")
    p_shatter.add_argument("specfile", nargs="?")
    p_shatter.add_argument("--uniform", nargs=2, metavar=("r=R", "L=L"))
    p_shatter.add_argument("--r", type=int)
    p_shatter.add_argument("--eps", type=float)
    p_shatter.add_argument("--out")
    p_shatter.set_defaults(handler=cmd_shatter)

    p_verify = sub.add_parser("verify", help="Monte Carlo check of the closed forms")
    p_verify.add_argument("--n", type=int, default=8)
    p_verify.add_argument("--m", type=int, default=8)
    p_verify.add_argument("--selector", default="1,4,6")
    p_verify.add_argument("--activation", default="pseudo_random")
    p_verify.add_argument("--mc", type=int, default=160000)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--out")
    p_verify.set_defaults(handler=cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    level_name = os.environ.get("CAPNET_LOG", "warn").lower()
    if level_name not in _LOG_LEVELS:
        print(
            f"error: CAPNET_LOG must be one of {sorted(_LOG_LEVELS)}, got {level_name!r}",
            file=sys.stderr,
        )
        return 2
    logging.basicConfig(
        level=_LOG_LEVELS[level_name],
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
        force=True,
    )
    log.setLevel(_LOG_LEVELS[level_name])
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except StabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
