"""The shipped dataset, `data/default_scenario.yaml`: synthetic days (one per
season, under a favorable and an unfavorable regime), unit ratings and costs
from published equipment data, and invented hourly shapes.  The YAML file is
the dataset; it is edited as text, and `scenario_io.save_scenario` writes its
canonical form."""

from importlib import resources
from pathlib import Path


def default_scenario_path() -> Path:
    return Path(str(resources.files("rvpp").joinpath("data/default_scenario.yaml")))
