"""Doppler shifts, retarded times and leading-order fields of moving
modulated sources in dispersive media, via the two-dimensional stationary
phase method, validated against direct oscillatory-integral quadrature."""

from . import dispersion, fields, oracle, stationary_phase, trajectory, units
from .dispersion import (ColdPlasma, DispersionSample, LorentzMetamaterial,
                         NonDispersive, lorentz_from_thz)
from .fields import (DopplerClass, FieldContribution, SourceModel,
                     cherenkov_solve, doppler_classification,
                     metamaterial_doppler_1d, moving_source_fields,
                     plasma_doppler_closed_form, retard_1d)
from .stationary_phase import (PhaseContext, StationaryPoint,
                               saddle_contribution, solve_grid, solve_line,
                               solve_newton)
from .trajectory import CustomTrajectory, OffsetLine, StraightLine
from .units import omega_from_thz, thz_from_omega

__version__ = "0.1.0"

__all__ = [
    "dispersion", "fields", "oracle", "stationary_phase", "trajectory",
    "units", "ColdPlasma", "DispersionSample", "LorentzMetamaterial",
    "NonDispersive", "lorentz_from_thz", "DopplerClass", "FieldContribution",
    "SourceModel", "cherenkov_solve", "doppler_classification",
    "metamaterial_doppler_1d", "moving_source_fields",
    "plasma_doppler_closed_form", "retard_1d",
    "PhaseContext", "StationaryPoint", "saddle_contribution",
    "solve_grid", "solve_line", "solve_newton",
    "CustomTrajectory",
    "OffsetLine", "StraightLine", "omega_from_thz", "thz_from_omega",
]
