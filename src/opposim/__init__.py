"""opposim: a discrete-event simulator for smartphone opportunistic networks.

Five layers: a road-network map with points of interest, working-day
mobility (house / office / evening spot), random traffic, an
infrastructure-mode WiFi role machine (access point / client / idle), and
pluggable store-carry-forward routing (epidemic flooding, binary
spray-and-wait, and home-gated spray-and-wait).
"""

from .batch import run_batch, sweep
from .contacts import Contact, run_contact_trace
from .engine import Plane, Simulation, run
from .map_graph import (PoiKind, PointOfInterest, RoadGraph, SegmentLayout,
                        parse_map, place_pois, serialize_map, shortest_path,
                        synth_map)
from .metrics import MetricsReport, aggregate, write_reports
from .mobility import (Activity, MobilityModel, MobilitySettings, NodeProfile,
                       build_profiles, is_at_home, schedule_day)
from .radio import (LinkModel, RadioState, TimingParams, assign_channel,
                    effective_bandwidth, net_initiate_time,
                    net_reinitiate_time)
from .routing import (Buffer, RouterPolicy, buffer_admit, make_policy,
                      spray_split)
from .scenario import (MapConfig, PoiConfig, RadioConfig, RoutingConfig,
                       ScenarioConfig, load_scenario, serialize_scenario)
from .traffic import (Message, TrafficConfig, expected_count, make_message,
                      next_creation)

__version__ = "0.1.0"
