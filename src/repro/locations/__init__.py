"""Location learning: models, config parsing, dictionaries, extraction.

Section 4.1.2 of the paper: a router almost always logs only locations it
knows about — those in its configuration.  So the location dictionary is
built offline from router configs, then used online to recognize and resolve
location strings embedded in free-form syslog text.
"""

from repro.locations.configparse import parse_config, parse_configs
from repro.locations.dictionary import LocationDictionary
from repro.locations.extract import LocationExtractor
from repro.locations.hierarchy import (
    InterfaceName,
    ancestors_of_name,
    parse_interface_name,
)
from repro.locations.model import Location, LocationKind
from repro.locations.spatial import spatially_matched

__all__ = [
    "InterfaceName",
    "Location",
    "LocationDictionary",
    "LocationExtractor",
    "LocationKind",
    "ancestors_of_name",
    "parse_config",
    "parse_configs",
    "parse_interface_name",
    "spatially_matched",
]
