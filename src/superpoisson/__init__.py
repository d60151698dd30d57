"""Exact derived-bracket calculus on graded symplectic charts."""

from .superpoly import (EVEN, ODD, Generator, SuperPoly, left_partial,
                        substitute, parse_expr, to_text, ParseError)
from .charts import (Chart, ChartError, validate_chart, make_darboux_chart,
                     make_cotangent_antivb_chart, identity_metric,
                     hyperbolic_metric, chart_to_json, chart_from_json)

__all__ = [
    "EVEN", "ODD", "Generator", "SuperPoly", "left_partial", "substitute",
    "parse_expr", "to_text", "ParseError",
    "Chart", "ChartError", "validate_chart",
    "make_darboux_chart", "make_cotangent_antivb_chart", "identity_metric",
    "hyperbolic_metric", "chart_to_json", "chart_from_json",
]
