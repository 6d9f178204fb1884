"""Command-line front end: spec files in, canonical JSON/CSV reports out.

Exit codes: 0 on success, 1 when a run is rejected numerically (an unstable
step size, for instance), 2 on usage or spec errors.  Identical invocations
with identical seeds produce byte-identical output.
"""

from __future__ import annotations

import contextlib
import functools
import json
import logging
import os
import sys
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, List, NamedTuple, NoReturn, Optional, Sequence, Tuple

import numpy as np

# hashlib maps OpenSSL's libcrypto, about 3.5 MiB a process; the built-in module does not
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256  # a build without the built-in hashes

from . import __version__
from .analyze import erf_profile, shatter_analysis, uniform_path_weight
from .augment import Activation, decoupling_nu, estimate_nu_monte_carlo
from .core import ProjectionMatrix, SpatialCapacity
from .deeplimit import _MAX_WALK_CELL_STEPS
from .deeplimit import DeepLimitConfig, ResidualGenerator, StabilityError, compare_markov_pde
from .jsonfmt import canonical_dump, canonical_dumps
from .oracle import ExperimentConfig, empirical_spatial_capacity
from .propagate import (
    LayerChain,
    Operator,
    PropagationOperator,
    Stencil,
    _check_differential,
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
# What a spec's layers hold, together: each dense or differential layer's
# n_in x n_out float64 operator or each stencil's taps, and what the command
# keeps of every layer, chain's profiles or shatter's diagonals; or the one
# layer verify draws.  Building an operator takes up to 4x its size at once, so
# a spec stays within about 2 GiB.
_SPEC_BUDGET_BYTES = 512 * 2**20


class SpecError(ValueError):
    """A network spec that cannot be built as written."""


@dataclass(frozen=True)
class NetworkSpec:
    """A parsed architecture document, its chain and its probe.

    The chain holds each layer's validated description and builds the
    layer's operator when a pass reaches it, so a spec command holds about
    one operator at a time.
    """

    document: dict
    chain: LayerChain
    top: SpatialCapacity
    seeds: Tuple[int, ...]

    def spec_hash(self) -> str:
        """The SHA-256 hex digest of the document's canonical JSON."""
        return sha256(canonical_dumps(self.document).encode()).hexdigest()


@dataclass(frozen=True)
class _Layer:
    """A validated spec layer: its shape, its operator's build, and its taps (0 if dense)."""

    n_in: int
    n_out: int
    build: Callable[[], Operator]
    taps: int


@contextlib.contextmanager
def _naming_layer(i: int):
    """Prefix the errors raised inside with layer i's index."""
    try:
        yield
    except StabilityError as exc:
        raise StabilityError(f"layer {i}: {exc}") from None
    except ValueError as exc:
        raise SpecError(f"layer {i}: {exc}") from None


class _SpecChain(LayerChain):
    """A chain of ``_Layer`` descriptions, each built when a pass reaches it."""

    def operator(self, i: int) -> Operator:
        with _naming_layer(i):
            return self.layers[i].build()


def _parse_layer(entry, seeds: List[int]) -> _Layer:
    """One layer, checked as far as it can be without its operator.

    Its errors are prefixed with the layer's index by the caller.
    """
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
    if "activation" in entry and not isinstance(entry["activation"], str):
        raise SpecError(f"activation must be a string, got {entry['activation']!r}")

    if weights.startswith(("uniform:", "residual:")):
        name, params = weights.split(":", 1)
        if kind == "differential" or (name == "residual" and kind != "residual"):
            raise SpecError(f"{name} weights cannot be {kind}")
        for key in ("activation", "eps"):
            if key in entry:
                raise SpecError(f"{name} weights take no {key}")
        if n_in != n_out:
            raise SpecError(f"{name} weights need n_in == n_out")
        if name == "uniform":
            try:
                r = int(params)
            except ValueError:
                raise SpecError(f"bad window in {weights!r}") from None
            if not 1 <= r <= n_in:
                raise SpecError(f"window size must be in [1, {n_in}], got {r}")
            return _Layer(n_in, n_out, functools.partial(_uniform_stencil, n_in, r), r)
        parts = params.split(",")
        if len(parts) != 3:
            raise SpecError(f"expected residual:<eps>,<v>,<D>, got {weights!r}")
        try:
            eps, v, dcoef = (float(p) for p in parts)
        except ValueError:
            raise SpecError(f"non-numeric residual parameters in {weights!r}") from None
        generator = ResidualGenerator(n_in, v, dcoef)
        generator._check_eps(eps)
        return _Layer(n_in, n_out, functools.partial(generator.stencil, eps), 3)

    seed = None
    if weights.startswith("random_gaussian:"):
        try:
            seed = int(weights.split(":", 1)[1])
        except ValueError:
            raise SpecError(f"bad seed in {weights!r}") from None
        if seed < 0:
            raise SpecError(f"seed in {weights!r} must be non-negative")
        seeds.append(seed)
    if kind == "residual":
        raise SpecError("kind residual needs residual:<eps>,<v>,<D> weights")
    eps = None
    if kind == "differential":
        if "eps" not in entry:
            raise SpecError("differential layers need eps")
        eps = entry["eps"]
        if isinstance(eps, bool) or not isinstance(eps, (int, float)):
            raise SpecError(f"eps must be a number, got {eps!r}")
    elif "eps" in entry:
        raise SpecError("dense layers take no eps")
    elif "activation" not in entry:
        raise SpecError("dense layers need an activation")
    # D = P o P holds under total decoupling, so it describes pseudo_random layers only
    activation = Activation.parse(entry.get("activation", "pseudo_random"))
    if activation.kind != "pseudo_random":
        raise SpecError(
            f"activation {activation.kind!r} has no closed-form chain propagation; "
            "only pseudo_random is eligible"
        )
    if eps is not None:
        _check_differential(n_in, n_out, eps)
    build = functools.partial(_projection_operator, weights, seed, n_in, n_out, eps)
    return _Layer(n_in, n_out, build, 0)


def _uniform_stencil(n: int, r: int) -> Stencil:
    """r taps of 1/r about each cell; an even window's extra tap lies above it."""
    return Stencil(n, np.arange(r) - (r - 1) // 2, np.full(r, 1.0 / r))


def _projection_operator(
    weights: str, seed: Optional[int], n_in: int, n_out: int, eps: Optional[float]
) -> PropagationOperator:
    """A dense layer's operator, or a differential one's when eps is given.

    The weights are drawn from ``seed``, or without one read from the file
    ``weights`` names.
    """
    if seed is not None:
        raw = np.random.default_rng(seed).standard_normal((n_in, n_out))
    else:
        try:
            raw = np.loadtxt(weights, delimiter=",", ndmin=2)
        except OSError:
            raise SpecError(f"cannot read weights file {weights!r}") from None
        except ValueError as exc:
            raise SpecError(f"weights file {weights!r} is not numeric: {exc}") from None
        if raw.shape != (n_in, n_out):
            raise SpecError(f"weights are {raw.shape[0]}x{raw.shape[1]}, spec says {n_in}x{n_out}")
    projection = ProjectionMatrix.from_raw(raw)
    if eps is None:
        return propagation_matrix(projection)
    return differential_propagation_matrix(projection, eps)


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
        for i, entry in enumerate(value):
            if isinstance(entry, bool) or not isinstance(entry, (int, float)):
                raise SpecError(f"top_capacity entry {i} must be a number, got {entry!r}")
        try:
            return SpatialCapacity(np.asarray(value, dtype=float))
        except (OverflowError, ValueError) as exc:
            raise SpecError(f"bad top_capacity: {exc}") from None
    raise SpecError("top_capacity must be a vector, dirac:<index>, or uniform")


def parse_network_spec(document, keeps: str = "") -> NetworkSpec:
    """Validate an architecture document; its chain builds each operator when reached.

    Every check that does not need a layer's matrix runs here, in document
    order.  Among them, the layers must fit in the 512 MiB spec budget, and a
    pass must sum no more terms over all stencils, n times taps each, than a
    walk may step cells.  The budget charges each layer its operator or its
    taps, and what the command keeps of it: ``keeps`` is "profile" for a
    command that keeps every n_out-float interface profile (chain),
    "diagonal" for one that stacks every n_in-float diagonal (shatter), or
    empty for one that streams its layers (erf).  Reading a weights file,
    drawing a layer's weights and the checks on the matrix run when a pass
    over the chain builds that layer.
    """
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
    layers: List[_Layer] = []
    spare_bytes, spare_cell_taps = _SPEC_BUDGET_BYTES, _MAX_WALK_CELL_STEPS
    for i, entry in enumerate(layers_doc):
        with _naming_layer(i):
            layer = _parse_layer(entry, seeds)
            n, n_out, taps = layer.n_in, layer.n_out, layer.taps
            kept = {"": 0, "profile": n_out, "diagonal": n}[keeps]
            spare_bytes -= 8 * kept + (16 * taps if taps else 8 * n * n_out)
            if spare_bytes < 0:
                held = f"{taps}-tap stencil" if taps else f"{n}x{n_out} operator"
                held += f" and {kept}-float {keeps} take" if kept else " takes"
                raise SpecError(
                    f"its {held} the spec past the "
                    f"{_SPEC_BUDGET_BYTES // 2**20} MiB spec memory limit"
                )
            spare_cell_taps -= n * taps
            if spare_cell_taps < 0:
                raise SpecError(
                    f"its {taps} taps on {n} cells take the spec's stencils past "
                    f"{_MAX_WALK_CELL_STEPS:,} cell-taps a pass"
                )
        layers.append(layer)
    try:
        chain = _SpecChain(layers)
    except ValueError as exc:
        raise SpecError(str(exc)) from None
    top = _parse_top_capacity(document["top_capacity"], chain.n_out)
    return NetworkSpec(document=document, chain=chain, top=top, seeds=tuple(seeds))


def load_network_spec(path: str, keeps: str = "") -> NetworkSpec:
    """The spec in the JSON file ``path``, parsed by :func:`parse_network_spec`."""
    try:
        with open(path, "r") as handle:
            document = json.load(handle)
    except OSError:
        raise SpecError(f"cannot read spec file {path!r}") from None
    except json.JSONDecodeError as exc:
        raise SpecError(f"spec file {path!r} is not valid JSON: {exc}") from None
    return parse_network_spec(document, keeps)


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
            rows = enumerate(profile.values.tolist())
            handle.write("".join(f"{layer},{coordinate},{kappa!r}\n" for coordinate, kappa in rows))


def cmd_nu(args) -> int:
    activation = Activation.parse(args.activation)
    log.info("decoupling scale for %s", activation.spec())
    if args.mc is None:
        _emit_json({"nu": decoupling_nu(activation)}, args.out)
        return 0
    _emit_json(estimate_nu_monte_carlo(activation, args.mc, args.seed), args.out)
    return 0


def cmd_chain(args) -> int:
    spec = load_network_spec(args.specfile, keeps="profile")
    log.info("propagating through %d layers", len(spec.chain))
    profiles = propagate_chain(spec.chain, spec.top)
    report = {
        "metadata": {
            "seeds": list(spec.seeds),
            "spec_hash": spec.spec_hash(),
            "version": __version__,
        },
        "profiles": [p.values for p in profiles],
        "totals": [p.total for p in profiles],
    }
    _emit_json(report, args.out)
    if args.csv is not None:
        _write_profiles_csv(profiles, args.csv)
    return 0


def _probe(args, n: int) -> int:
    """The probed cell of an n-cell grid: ``--probe``, checked, or the middle cell."""
    if args.probe is None:
        return n // 2
    if not 0 <= args.probe < n:
        raise SpecError(f"--probe: dirac index {args.probe} out of range [0, {n})")
    return args.probe


def _residual_walk(args) -> Tuple[ResidualGenerator, DeepLimitConfig, int]:
    """The walk of pde and erf and its probed cell, each option not given set to its default.

    The grid is checked first, then the probe; both before any profile is built.
    """
    vars(args).update({k: v for k, v in _WALK_DEFAULTS.items() if getattr(args, k) is None})
    generator = ResidualGenerator(args.n, args.v, args.D, args.boundary)
    return generator, DeepLimitConfig(eps=args.eps, L=args.L), _probe(args, args.n)


def cmd_pde(args) -> int:
    generator, cfg, probe = _residual_walk(args)
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
        cfg, depth, probe = None, len(source), _probe(args, source.n_out)
    else:
        source, cfg, probe = _residual_walk(args)
        depth = args.L
    if args.ratio_depth is not None and not 1 <= args.ratio_depth <= depth:
        raise SpecError(f"ratio depth must be in [1, {depth}]")
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
    spec = load_network_spec(args.specfile, keeps="diagonal")
    r = args.r if args.r is not None else spec.chain.n_in
    _emit_json(shatter_analysis(spec.chain, r, eps=args.eps), args.out)
    return 0


def cmd_verify(args) -> int:
    try:
        selector = tuple(int(part) for part in args.selector.split(","))
    except ValueError:
        raise SpecError(
            f"--selector must be comma-separated integers, got {args.selector!r}"
        ) from None
    if 8 * args.n * args.m > _SPEC_BUDGET_BYTES:
        raise ValueError(
            f"a {args.n}x{args.m} layer is past the "
            f"{_SPEC_BUDGET_BYTES // 2**20} MiB operator limit"
        )
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


def _seed(text: str) -> int:
    """A --seed value: numpy seeds only non-negative integers."""
    try:
        seed = int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise ValueError(f"must be non-negative, got {seed}")
    return seed


# NamedTuples, not dataclasses, which compile their methods in every process that imports them
class _Option(NamedTuple):
    """A ``--name`` option: its help, how its text converts, and its default."""

    name: str
    help: str
    convert: Optional[Callable[[str], object]] = None  # None keeps the text
    default: object = None
    choices: Tuple[str, ...] = ()
    nargs: int = 1  # more than one keeps the list of texts
    metavar: str = ""

    @property
    def dest(self) -> str:
        return self.name[2:].replace("-", "_")


class _Command(NamedTuple):
    """A command's help line, its options, and its positional, bracketed if it may be left out."""

    help: str
    options: Tuple[_Option, ...]
    positional: str = ""


_OUT = _Option("--out", "write the report to this file instead of stdout")

# the residual walk that pde and erf both run, defaulted by _residual_walk
_WALK_OPTIONS = (
    _Option("--n", f"grid cells (default {_WALK_DEFAULTS['n']})", int),
    _Option("--eps", f"step size of a layer (default {_WALK_DEFAULTS['eps']})", float),
    _Option("--L", f"depth in layers (default {_WALK_DEFAULTS['L']})", int),
    _Option("--D", f"diffusion coefficient (default {_WALK_DEFAULTS['D']})", float),
    _Option("--v", f"drift (default {_WALK_DEFAULTS['v']})", float),
    _Option(
        "--boundary",
        f"grid boundary (default {_WALK_DEFAULTS['boundary']})",
        choices=("periodic", "reflecting"),
    ),
    _Option("--probe", "probed cell (default the middle one)", int),
)

# Each command runs the module's cmd_<command>, looked up when the line is
# parsed, so that a wrapper set over the handler later is the one called.
_COMMANDS = {
    "nu": _Command(
        "decoupling scale of an activation",
        (
            _Option("--mc", "Monte Carlo sample count (default the closed form only)", int),
            _Option("--seed", "Monte Carlo seed", _seed, 0),
            _OUT,
        ),
        "activation",
    ),
    "chain": _Command(
        "propagate a capacity profile",
        (_OUT, _Option("--csv", "also write the profiles to this file as a CSV table")),
        "specfile",
    ),
    "pde": _Command(
        "Markov chain against the diffusion closed form",
        _WALK_OPTIONS + (_Option("--refinements", "grid refinements", int, 2), _OUT),
    ),
    "erf": _Command(
        "effective receptive field widths",
        _WALK_OPTIONS
        + (_Option("--ratio-depth", "also report the width ratio to this depth", int), _OUT),
        "[specfile]",
    ),
    "shatter": _Command(
        "path-weight analysis",
        (
            _Option("--uniform", "the uniform window's closed form", nargs=2, metavar="r=R L=L"),
            _Option("--r", "baseline window (default the spec's input width)", int),
            _Option("--eps", "residual step size, recorded in the report", float),
            _OUT,
        ),
        "[specfile]",
    ),
    "verify": _Command(
        "Monte Carlo check of the closed forms",
        (
            _Option("--n", "layer inputs", int, 8),
            _Option("--m", "layer outputs", int, 8),
            _Option("--selector", "comma-separated selected columns", default="1,4,6"),
            _Option("--activation", "activation", default="pseudo_random"),
            _Option("--mc", "Monte Carlo sample count", int, 160000),
            _Option("--seed", "seed of the weights and the samples", _seed, 0),
            _OUT,
        ),
    ),
}

_HELP = ("-h", "--help")


def _usage(command: str) -> str:
    words = [command or "<command>", _COMMANDS[command].positional if command else ""]
    return " ".join(["usage: capnet", *filter(None, words), "[options]"])


def _refuse(command: str, message: str) -> NoReturn:
    """Print the usage and a ``capnet: error:`` line to stderr, and exit 2."""
    print(f"{_usage(command)}\ncapnet: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _help(command: str) -> NoReturn:
    """Print the top-level help, or a command's, and exit 0."""
    if command:
        rows = []
        for option in _COMMANDS[command].options:
            metavar = option.metavar or option.dest.upper()
            if option.choices:
                metavar = "{" + ",".join(option.choices) + "}"
            default = "" if option.default is None else f" (default {option.default})"
            rows.append((f"{option.name} {metavar}", option.help + default))
        rows.append(("-h, --help", "show this help"))
        lines = [_COMMANDS[command].help, "", "options:"]
    else:
        rows = [(name, spec.help) for name, spec in _COMMANDS.items()]
        rows.append(("-h, --help", "show this help; 'capnet <command> -h' lists its options"))
        lines = ["Capacity allocation analyses for layered networks.", "", "commands:"]
    width = max(len(head) for head, _ in rows) + 2
    lines += [f"  {head:{width}}{text}" for head, text in rows]
    lines += ["", "Options take their full names, as --name value or --name=value, in any order."]
    print("\n".join([_usage(command), "", *lines]))
    raise SystemExit(0)


def _is_option(token: str) -> bool:
    """Whether ``token`` names an option rather than a value; a negative number is a value."""
    try:
        float(token)
    except ValueError:
        return token.startswith("-") and token != "-"
    return False


def _parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """``capnet argv`` as its command, its handler and every option's value, None when unset.

    A malformed line exits 2 with a ``capnet: error:`` line that names the
    argument; ``-h`` or ``--help`` prints the help and exits 0.
    """
    if not argv:
        _refuse("", "the following arguments are required: command")
    command, tokens = argv[0], list(argv[1:])
    if command in _HELP:
        _help("")
    if command not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        _refuse("", f"argument command: invalid choice: {command!r} (choose from {choices})")
    spec = _COMMANDS[command]
    options = {option.name: option for option in spec.options}
    values = {option.dest: option.default for option in spec.options}
    positionals = []
    while tokens:
        token = tokens.pop(0)
        if token in _HELP:
            _help(command)
        if not _is_option(token):
            positionals.append(token)
            continue
        name, inline, text = token.partition("=")
        if name not in options:
            full = " or ".join(known for known in options if known.startswith(name))
            hint = f"; did you mean {full}? Names are not abbreviated" if full else ""
            _refuse(command, f"unrecognized option {name}{hint}")
        option = options[name]
        if inline:
            words = [text]
        else:
            words = []
            while len(words) < option.nargs and tokens and not _is_option(tokens[0]):
                words.append(tokens.pop(0))
        if len(words) != option.nargs:
            wanted = "one argument" if option.nargs == 1 else f"{option.nargs} arguments"
            _refuse(command, f"argument {name}: expected {wanted}")
        value = words if option.nargs > 1 else words[0]
        if option.choices and value not in option.choices:
            choices = ", ".join(map(repr, option.choices))
            _refuse(command, f"argument {name}: invalid choice: {value!r} (choose from {choices})")
        if option.convert is not None:
            try:
                value = option.convert(value)
            except ValueError as exc:
                builtin = isinstance(option.convert, type)  # int or float
                reason = f"invalid {option.convert.__name__} value: {value!r}" if builtin else exc
                _refuse(command, f"argument {name}: {reason}")
        values[option.dest] = value
    if spec.positional:
        required = not spec.positional.startswith("[")
        if required and not positionals:
            _refuse(command, f"the following arguments are required: {spec.positional}")
        values[spec.positional.strip("[]")] = positionals.pop(0) if positionals else None
    if positionals:
        _refuse(command, f"unrecognized arguments: {' '.join(positionals)}")
    return SimpleNamespace(command=command, handler=globals()[f"cmd_{command}"], **values)


def _log_to_stderr(level: int) -> None:
    """Send capnet's log records at ``level`` and above to stderr, and nowhere else.

    The one handler is replaced on each call, and the root logger is left as
    the host set it.
    """
    for old in [handler for handler in log.handlers if handler.get_name() == __name__]:
        log.removeHandler(old)
    handler = logging.StreamHandler(sys.stderr)
    handler.set_name(__name__)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    log.addHandler(handler)
    log.setLevel(level)
    log.propagate = False


def main(argv: Optional[Sequence[str]] = None) -> int:
    level_name = os.environ.get("CAPNET_LOG", "warn").lower()
    if level_name not in _LOG_LEVELS:
        print(
            f"error: CAPNET_LOG must be one of {sorted(_LOG_LEVELS)}, got {level_name!r}",
            file=sys.stderr,
        )
        return 2
    _log_to_stderr(_LOG_LEVELS[level_name])
    args = _parse_args(sys.argv[1:] if argv is None else argv)
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
