"""Circuit breaker models with inverse-time (thermal) trip behaviour.

Data center power infrastructure (the on-site substation, the PDUs) is
protected by molded-case circuit breakers.  The common practice of capping
load at the rated limit is conservative: per UL489 and the Bulletin 1489-A
trip curve (Fig. 2 of the paper), a breaker tolerates bounded overload for a
bounded time before tripping.  Data Center Sprinting exploits exactly this
tolerance in its first phase.

Calibration
-----------
Section VII-D of the paper reads the trip curve as: a 60 % overload trips in
about 1 minute while a 30 % overload trips in about 4 minutes — trip time is
inversely proportional to the *square* of the overload fraction:

    trip_time(o) = 21.6 s / o**2          (long-delay thermal region)

where ``o = load / rated - 1``.  Below a small hold threshold the breaker
never trips (UL489 requires holding 100 % indefinitely); above the magnetic
instantaneous-trip multiple the breaker opens within one cycle.

Time-varying overload
---------------------
Real sprinting workloads overload the breaker by a different amount every
second.  We integrate a *trip fraction* ``h`` (the consumed share of the
thermal trip budget, h=0 cold, h=1 trip):

    dh/dt = 1 / trip_time(o(t))     while overloaded
    dh/dt = -h / cooldown_tau       while at or below rated load

This is the standard thermal-accumulator abstraction of a bimetal trip
element and makes ``remaining_trip_time()`` well defined for any history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import BreakerTrippedError, ConfigurationError
from repro.units import (
    require_fraction,
    require_non_negative,
    require_positive,
)

#: Calibration constant of the long-delay region: trip_time = K / overload^2.
#: Chosen so a 60 % overload trips in 60 s and a 30 % overload in 240 s,
#: matching the numbers Section VII-D reads off the Bulletin 1489-A curve.
DEFAULT_TRIP_CONSTANT_S = 21.6

#: Overload fraction at or below which the breaker holds indefinitely.
DEFAULT_HOLD_THRESHOLD = 0.04

#: Load multiple (of rated) at which the magnetic element trips instantly.
DEFAULT_INSTANT_TRIP_MULTIPLE = 5.0

#: Trip delay of the magnetic (short-circuit) region, one AC cycle-ish.
DEFAULT_INSTANT_TRIP_TIME_S = 0.02

#: Time constant of thermal-element cool-down when load returns below rated.
DEFAULT_COOLDOWN_TAU_S = 120.0


@dataclass(frozen=True, slots=True)
class TripCurve:
    """Inverse-time trip curve of a molded-case circuit breaker.

    The curve maps a constant overload fraction ``o`` (load divided by rated
    power, minus one) to the time the breaker sustains it before tripping.
    Instances are immutable and shared freely between breakers.

    Parameters
    ----------
    trip_constant_s:
        ``K`` in ``trip_time = K / o**2`` for the long-delay region.
    hold_threshold:
        Overload fraction at or below which the breaker never trips.
    instant_trip_multiple:
        Load multiple (of rated) at which the magnetic element opens.
    instant_trip_time_s:
        Trip delay once in the magnetic region.
    """

    trip_constant_s: float = DEFAULT_TRIP_CONSTANT_S
    hold_threshold: float = DEFAULT_HOLD_THRESHOLD
    instant_trip_multiple: float = DEFAULT_INSTANT_TRIP_MULTIPLE
    instant_trip_time_s: float = DEFAULT_INSTANT_TRIP_TIME_S

    def __post_init__(self) -> None:
        require_positive(self.trip_constant_s, "trip_constant_s")
        require_non_negative(self.hold_threshold, "hold_threshold")
        require_positive(self.instant_trip_time_s, "instant_trip_time_s")
        if self.instant_trip_multiple <= 1.0 + self.hold_threshold:
            raise ConfigurationError(
                "instant_trip_multiple must exceed 1 + hold_threshold"
            )

    def trip_time_s(self, overload_fraction: float) -> float:
        """Time (s) a *constant* overload is sustained before tripping.

        ``overload_fraction`` is ``load / rated - 1``; e.g. ``0.3`` means the
        breaker carries 130 % of its rated power.  Returns ``math.inf`` when
        the overload is within the hold region.
        """
        o = require_non_negative(overload_fraction, "overload_fraction")
        if o <= self.hold_threshold * (1.0 + 1e-9):
            return math.inf
        if 1.0 + o >= self.instant_trip_multiple:
            return self.instant_trip_time_s
        return self.trip_constant_s / (o * o)

    def max_overload_for_trip_time(self, trip_time_s: float) -> float:
        """Largest constant overload fraction sustained for ``trip_time_s``.

        This is the inverse of :meth:`trip_time_s` in the long-delay region
        and is what the sprinting controller uses to compute the overload
        upper bound that keeps the remaining trip time above its reserve.
        """
        t = require_positive(trip_time_s, "trip_time_s")
        if t <= self.instant_trip_time_s:
            return self.instant_trip_multiple - 1.0
        o = math.sqrt(self.trip_constant_s / t)
        # The hold region sustains forever, so the answer is never below it
        # (backed off a hair so a load placed exactly at the returned bound
        # still rounds into the hold region).
        o = max(o, self.hold_threshold * (1.0 - 1e-9))
        # And never into the magnetic region.
        return min(o, self.instant_trip_multiple - 1.0 - 1e-9)


@dataclass(slots=True)
class CircuitBreaker:
    """A circuit breaker with thermal trip-state memory.

    The breaker protects a power-delivery component rated at
    ``rated_power_w``.  Feed it the observed load once per time step with
    :meth:`step`; it integrates the thermal trip fraction, trips when the
    budget is exhausted, and cools down while the load stays within rating.

    Parameters
    ----------
    name:
        Identifier used in error messages and telemetry.
    rated_power_w:
        Rated (continuous) power of the protected branch.
    curve:
        The inverse-time trip curve; defaults to the Bulletin 1489-A
        calibration used throughout the paper.
    cooldown_tau_s:
        Exponential time constant of trip-fraction decay at or below rating.
    """

    name: str
    rated_power_w: float
    curve: TripCurve = field(default_factory=TripCurve)
    cooldown_tau_s: float = DEFAULT_COOLDOWN_TAU_S

    #: Consumed fraction of the thermal trip budget, in [0, 1].
    trip_fraction: float = field(default=0.0, init=False)
    #: Whether the breaker has tripped (latched open).
    tripped: bool = field(default=False, init=False)
    #: Simulation time of the trip, NaN if never tripped.
    tripped_at_s: float = field(default=math.nan, init=False)
    #: Internal clock advanced by :meth:`step`.
    _time_s: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        require_positive(self.rated_power_w, "rated_power_w")
        require_positive(self.cooldown_tau_s, "cooldown_tau_s")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def overload_fraction(self, load_w: float) -> float:
        """Overload fraction for a hypothetical load (0 when within rating)."""
        require_non_negative(load_w, "load_w")
        return max(0.0, load_w / self.rated_power_w - 1.0)

    def remaining_trip_time_s(self, load_w: float) -> float:
        """Time until trip if ``load_w`` were held constant from now on.

        Accounts for the thermal budget already consumed.  Returns
        ``math.inf`` inside the hold region and ``0`` if already tripped.
        """
        if self.tripped:
            return 0.0
        o = self.overload_fraction(load_w)
        t_full = self.curve.trip_time_s(o)
        if math.isinf(t_full):
            return math.inf
        return (1.0 - self.trip_fraction) * t_full

    def max_load_for_trip_time(self, reserve_s: float) -> float:
        """Largest constant load (W) whose remaining trip time >= reserve_s.

        This is the Phase-1 control knob: the sprinting controller keeps the
        branch load at or below this value so the breaker always retains at
        least ``reserve_s`` of trip budget (the paper's "1 minute" user
        parameter, Section V-B).
        """
        require_positive(reserve_s, "reserve_s")
        if self.tripped:
            return 0.0
        head = 1.0 - self.trip_fraction
        if head <= 0.0:
            # An exhausted thermal budget grants no overload headroom.  The
            # bound sits one ulp below rating: at exactly rated power the
            # hold region neither trips nor cools the element, while any
            # load strictly below rating lets the trip fraction decay.
            return math.nextafter(self.rated_power_w, 0.0)
        # remaining = head * K / o^2 >= reserve  =>  o <= sqrt(head*K/reserve)
        equivalent_full_trip_s = reserve_s / head
        o = self.curve.max_overload_for_trip_time(equivalent_full_trip_s)
        return self.rated_power_w * (1.0 + o)

    # ------------------------------------------------------------------
    # Dynamics
    # ------------------------------------------------------------------
    def step(self, load_w: float, dt_s: float) -> None:
        """Advance the breaker ``dt_s`` seconds while carrying ``load_w``.

        Raises
        ------
        BreakerTrippedError
            If the thermal trip budget is exhausted during this step (or the
            load is in the magnetic region).  The breaker latches open; any
            further :meth:`step` with a positive load re-raises.
        """
        require_non_negative(load_w, "load_w")
        require_positive(dt_s, "dt_s")
        if self.tripped:
            if load_w > 0.0:
                raise BreakerTrippedError(self.name, self.tripped_at_s)
            self._time_s += dt_s
            return

        o = self.overload_fraction(load_w)
        trip_time = self.curve.trip_time_s(o)
        if math.isinf(trip_time):
            # UL489's "holds indefinitely" is an equilibrium, not a reset:
            # at or above rated load (the 100-104 % hold region) the bimetal
            # element stays where it is; only a load strictly below rating
            # lets it cool.
            if load_w < self.rated_power_w:
                self.trip_fraction *= math.exp(-dt_s / self.cooldown_tau_s)
            self._time_s += dt_s
            return

        budget_left = 1.0 - self.trip_fraction
        time_to_trip = budget_left * trip_time
        if time_to_trip <= dt_s:
            self.trip_fraction = 1.0
            self.tripped = True
            self.tripped_at_s = self._time_s + time_to_trip
            self._time_s += dt_s
            raise BreakerTrippedError(self.name, self.tripped_at_s)
        self.trip_fraction += dt_s / trip_time
        self._time_s += dt_s

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def force_trip(self, time_s: float = math.nan) -> None:
        """Latch the breaker open immediately (fault injection).

        Models an external forced trip — a ground fault, a maintenance
        error, a shunt-trip command — rather than thermal exhaustion.  Any
        subsequent :meth:`step` with a positive load raises
        :class:`~repro.errors.BreakerTrippedError`, exactly like a thermal
        trip; clear with :meth:`reset`.
        """
        self.trip_fraction = 1.0
        self.tripped = True
        self.tripped_at_s = time_s if not math.isnan(time_s) else self._time_s

    def derate(self, factor: float) -> None:
        """Reduce the rated power to ``factor`` of its current value.

        Fault injection for a partially failed or thermally impaired
        breaker: the trip curve keeps its shape but every overload fraction
        is computed against the reduced rating, so the same absolute load
        now consumes trip budget faster (or trips outright).
        """
        require_positive(factor, "factor")
        if factor > 1.0:
            raise ConfigurationError(
                f"derate factor must be <= 1, got {factor!r}"
            )
        self.rated_power_w *= factor

    def reset(self) -> None:
        """Manually reset the breaker (after a trip or between experiments)."""
        self.trip_fraction = 0.0
        self.tripped = False
        self.tripped_at_s = math.nan
        self._time_s = 0.0
