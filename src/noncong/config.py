"""Run configuration shared by the CLI and the demo scripts."""

from __future__ import annotations

from dataclasses import dataclass

from .traces import TABLE8_PRIMES


@dataclass
class RunConfig:
    series_order: int = 501          # coefficients carried per form, own index units
    congruence_prime_bound: int = 47
    trace_primes: tuple[int, ...] = TABLE8_PRIMES
    pn_bound: int = 500              # ratio tests run over pn <= pn_bound
    output_format: str = "human"     # human | csv | json
    modular_poly_path: str | None = None

    def validate(self) -> "RunConfig":
        if self.pn_bound > self.series_order - 1:
            raise ValueError(
                f"pn_bound {self.pn_bound} exceeds series precision "
                f"{self.series_order - 1}")
        if self.output_format not in ("human", "csv", "json"):
            raise ValueError(f"unknown output format {self.output_format!r}")
        return self
