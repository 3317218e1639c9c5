"""Pareto solver for budgeted Dubins touring under sensor-field exposure."""

from .geometry import CompositePath, DubinsPath, Pose, build_tour, dubins_shortest, path_length, sample
from .pareto import Fitness, dominates, hypervolume_2d, non_dominated_sort
from .scenario import Scenario, ScenarioError, SolverParams, generate_instance, load_scenario, save_scenario
from .sensing import SensorField, exposure
from .evolution import (
    Chromosome,
    EvolveResult,
    InfeasibleScenarioError,
    align_headings,
    crossover_two_point,
    decode,
    evaluate,
    evolve,
    initialize_population,
    mutate,
    repair_budget,
    sample_von_mises,
)
from .oracles import field_intensity, sensing_value

__version__ = "0.1.0"
