"""The KSpot GUI, substituted (§II).

The demo's second tier is a Java Swing GUI with three panels —
Configuration, Query and Display — plus a System Panel of live network
statistics. A Swing event loop is I/O, not logic; what the paper's GUI
*shows* is state this package models faithfully:

* :mod:`repro.gui.panels` — the Display Panel model with the ranked
  **KSpot bullets**;
* :mod:`repro.gui.render` — an ASCII renderer that draws the floor
  plan, sensors, cluster links and bullets (proof the display model is
  complete, and genuinely usable in a terminal);
* :mod:`repro.gui.stats` — the System Panel feed: per-epoch savings in
  messages/bytes/energy versus a baseline;
* :mod:`repro.gui.scenario` — JSON scenario files, what the
  Configuration Panel loads and stores.

The Query Panel is the query text itself: the CLI and
:meth:`repro.api.Deployment.submit` take it as typed.
"""

from .panels import DisplayPanel, KSpotBullet
from .render import render_display, render_savings, render_table
from .scenario import ScenarioConfig, load_scenario, save_scenario
from .stats import SavingsSample, SystemPanel

__all__ = [
    "DisplayPanel",
    "KSpotBullet",
    "render_display",
    "render_savings",
    "render_table",
    "SystemPanel",
    "SavingsSample",
    "ScenarioConfig",
    "load_scenario",
    "save_scenario",
]
