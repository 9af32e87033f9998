"""Scenario files: a flat, sectioned key-value format (INI grammar).

One scenario per file.  All frequencies at this boundary are ordinary
frequencies in THz; positions are in length-scale units and times in
length-scale/c units.  Example::

    [medium]
    kind = lorentz            ; lorentz | plasma | nondispersive
    ; lorentz keys (THz), defaulting to the bundled metamaterial set:
    ; f_pe_thz, gamma_e_thz, f_te_thz, f_pm_thz, gamma_m_thz, f_tm_thz
    ; plasma keys:        f_p_thz
    ; nondispersive keys: eps, mu

    [source]
    f0_thz = 420
    v = 0.5                   ; units of c, motion along x2 at offset H
    h = 0

    [observer]
    x1 = 0.01
    x2 = 1.595
    x3 = 0
    t = 2

    [solve]
    tol = 1e-10

    [output]
    format = csv              ; csv | json
    path = -                  ; '-' means stdout

Unknown sections and keys, including a medium key the chosen kind does not
read, are rejected.  Command-line flags override individual keys.
"""

import configparser
import io
import math
from dataclasses import dataclass, field

from . import dispersion as disp
from .errors import ScenarioError
from .units import omega_from_thz

_FORMATS = ("csv", "json")
# Scenario key -> lorentz_from_thz parameter.
_LORENTZ_KEYS = {"f_pe_thz": "f_pe", "gamma_e_thz": "gamma_e",
                 "f_te_thz": "f_te", "f_pm_thz": "f_pm",
                 "gamma_m_thz": "gamma_m", "f_tm_thz": "f_tm"}
_MEDIUM_KEYS = {"lorentz": set(_LORENTZ_KEYS), "plasma": {"f_p_thz"},
                "nondispersive": {"eps", "mu"}}
# Keys of each section, read in this order but for [medium]'s, which take
# the keys of every kind; Scenario.validate keeps those of its kind.
_SECTION_KEYS = {"medium": ("kind", *set().union(*_MEDIUM_KEYS.values())),
                 "source": ("f0_thz", "v", "h"),
                 "observer": ("x1", "x2", "x3", "t"),
                 "solve": ("tol",),
                 "output": ("format", "path")}


@dataclass
class Scenario:
    medium_kind: str = "lorentz"
    medium_params: dict = field(default_factory=dict)
    f0_thz: float = 420.0
    v: float = 0.5
    h: float = 0.0
    x1: float = 0.01
    x2: float = 1.595
    x3: float = 0.0
    t: float = 2.0
    tol: float = 1e-10
    out_format: str = "csv"
    out_path: str = "-"

    def validate(self) -> "Scenario":
        if self.medium_kind not in _MEDIUM_KEYS:
            raise ScenarioError(f"unknown medium kind {self.medium_kind!r}")
        unknown = sorted(set(self.medium_params)
                         - _MEDIUM_KEYS[self.medium_kind])
        if unknown:
            raise ScenarioError(f"[medium] unknown keys for kind "
                                f"{self.medium_kind}: {', '.join(unknown)}")
        if self.out_format not in _FORMATS:
            raise ScenarioError(f"unknown output format {self.out_format!r}")
        _carrier_in_range("f0_thz", self.f0_thz)
        for name in ("h", "x1", "x2", "x3", "t"):
            _in_range(name, getattr(self, name))
        if not -1.0 < self.v < 1.0:
            raise ScenarioError("source speed must lie in (-1, 1)")
        if not 0 < self.tol < math.inf:
            raise ScenarioError("tol must be finite and > 0")
        self.medium()           # rejects invalid medium parameters
        return self

    def medium(self) -> disp.DispersionModel:
        """The dispersion model; invalid parameters raise ScenarioError."""
        try:
            p = {key: _in_range(key, float(raw))
                 for key, raw in self.medium_params.items()}
            if self.medium_kind == "nondispersive":
                return disp.NonDispersive(eps=p.get("eps", 1.0),
                                          mu=p.get("mu", 1.0))
            if self.medium_kind == "plasma":
                return disp.ColdPlasma(
                    omega_p=omega_from_thz(p.get("f_p_thz", 500.0)))
            return disp.lorentz_from_thz(**{
                dst: p[src] for src, dst in _LORENTZ_KEYS.items() if src in p})
        except ValueError as err:
            raise ScenarioError(f"invalid {self.medium_kind} medium: {err}")


def _in_range(name: str, value: float) -> float:
    """value if 0 or of magnitude 1e-12 to 1e12, else ScenarioError: the model
    squares ranges and raises frequencies to the sixth power in doubles."""
    if not (value == 0 or 1e-12 <= abs(value) <= 1e12):
        raise ScenarioError(f"{name} must be 0 or of magnitude 1e-12 to 1e12")
    return value


def _carrier_in_range(name: str, value: float) -> float:
    """The range rule plus the carrier's sign rule, value > 0: a zero
    carrier radiates no wave to shift."""
    if _in_range(name, value) <= 0:
        raise ScenarioError(f"{name} must be > 0")
    return value


def _get(cp, section, key, cast, default):
    if cp.has_option(section, key):
        raw = cp.get(section, key)
        try:
            return cast(raw)
        except ValueError as err:
            raise ScenarioError(f"[{section}] {key} = {raw!r}: {err}")
    return default


def _reject_unknown(cp):
    """Raise ScenarioError on a section or key the scenario does not read."""
    if cp.defaults():
        raise ScenarioError(f"unknown section [{cp.default_section}]")
    for section in cp.sections():
        if section not in _SECTION_KEYS:
            raise ScenarioError(f"unknown section [{section}]")
        unknown = sorted(set(cp.options(section)) - set(_SECTION_KEYS[section]))
        if unknown:
            raise ScenarioError(
                f"[{section}] unknown keys: {', '.join(unknown)}")


def load_scenario(path_or_text: str, from_text: bool = False) -> Scenario:
    """Parse a scenario file (or literal text when ``from_text``)."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        if from_text:
            cp.read_file(io.StringIO(path_or_text))
        else:
            with open(path_or_text) as fh:
                cp.read_file(fh)
    except OSError as err:
        raise ScenarioError(f"cannot read scenario: {err}")
    except configparser.Error as err:
        raise ScenarioError(f"bad scenario syntax: {err}")

    _reject_unknown(cp)
    sc = Scenario()
    sc.medium_kind = _get(cp, "medium", "kind", str, sc.medium_kind).strip()
    if cp.has_section("medium"):
        sc.medium_params = {k: v for k, v in cp.items("medium") if k != "kind"}
    for section in ("source", "observer", "solve", "output"):
        for key in _SECTION_KEYS[section]:
            attr = {"format": "out_format", "path": "out_path"}.get(key, key)
            default = getattr(sc, attr)     # read as the default's type
            val = _get(cp, section, key, type(default), default)
            setattr(sc, attr, val.strip() if isinstance(val, str) else val)
    return sc.validate()
