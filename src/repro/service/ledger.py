"""A multiprocessing-safe daily cloud-budget ledger shared by all shards.

The single-process fleet engine funds a fleet through one
:class:`~repro.core.fleet.DailyBudgetLedger`; a *sharded* fleet needs the
same semantics across worker processes.  :class:`SharedDailyLedger` keeps
per-day spend buckets in a raw shared-memory array guarded by one
cross-process lock:

* **conservation** — every charge lands in exactly one day bucket under the
  lock, so the per-day buckets always sum to the total charged, no matter
  how many workers charge concurrently;
* **one day per charge** — a charge's bucket depends only on its ``time``
  argument, so it is chosen outside the lock and a charge racing a day
  boundary still lands wholly in one day's bucket; only the bucket's
  read-modify-write holds the lock.  Each day starts from its own zeroed
  bucket, so the first reader of a new day sees the full daily allowance;
* **no lost updates** — read-modify-write of a bucket never interleaves.

The ledger implements :class:`~repro.core.fleet.BudgetLedger`, so a
:class:`~repro.core.fleet.FleetEngine` can use it directly via its
``ledger=`` hook.  Unlimited budgets take a lock-free fast
path — ``remaining`` is a constant and zero-dollar charges are dropped —
so fleets that never touch the cloud pay nothing for the shared ledger.
"""

from __future__ import annotations

import multiprocessing
from typing import Dict, Optional

from repro.core.engine import SECONDS_PER_DAY
from repro.errors import ConfigurationError


class SharedDailyLedger:
    """Cross-process daily budget ledger backed by shared memory.

    Args:
        daily_budget_dollars: the fleet-wide daily allowance (``None``
            means unlimited cloud).
        base_day: first day index the ledger can account (charges are
            bucketed at ``day - base_day``); pass
            ``SharedDailyLedger.day_of(start_time)`` of the service window.
        horizon_days: number of day buckets after ``base_day``.
    """

    def __init__(
        self,
        daily_budget_dollars: Optional[float],
        base_day: int = 0,
        horizon_days: int = 4096,
    ):
        if daily_budget_dollars is not None and daily_budget_dollars < 0:
            raise ConfigurationError("daily_budget_dollars must be non-negative")
        if horizon_days < 1:
            raise ConfigurationError("horizon_days must be positive")
        self.daily_budget_dollars = daily_budget_dollars
        self.base_day = int(base_day)
        self.horizon_days = int(horizon_days)
        # lock=False: the explicit Lock below guards every access; buckets
        # live in raw shared memory inherited by (or pickled to) workers.
        self._spend = multiprocessing.Array("d", self.horizon_days, lock=False)
        self._lock = multiprocessing.Lock()

    @staticmethod
    def day_of(time: float) -> int:
        """Day index containing ``time`` (same convention as the engine)."""
        return int(time // SECONDS_PER_DAY)

    def _slot(self, day: int) -> int:
        slot = day - self.base_day
        if not 0 <= slot < self.horizon_days:
            raise ConfigurationError(
                f"day {day} outside the ledger horizon "
                f"[{self.base_day}, {self.base_day + self.horizon_days})"
            )
        return slot

    # ------------------------------------------------------------------ #
    # BudgetLedger interface
    # ------------------------------------------------------------------ #
    def spent_on(self, time: float) -> float:
        """Dollars spent during the day containing ``time``."""
        slot = self._slot(self.day_of(time))
        with self._lock:
            return self._spend[slot]

    def remaining(self, time: float) -> float:
        """Budget left for the day containing ``time`` (``inf`` if unlimited)."""
        if self.daily_budget_dollars is None:
            return float("inf")
        return max(self.daily_budget_dollars - self.spent_on(time), 0.0)

    def charge(self, time: float, dollars: float) -> None:
        """Atomically charge ``dollars`` against the day containing ``time``."""
        if dollars == 0.0:
            return
        if dollars < 0:
            raise ConfigurationError("cannot charge negative dollars")
        # The slot is a pure function of the ``time`` argument (not of wall
        # clock or shared state), so it is computed outside the lock; only
        # the read-modify-write of the bucket needs the critical section.
        # A charge racing a day boundary still lands wholly in one bucket —
        # the bucket choice was never lock-dependent.
        slot = self._slot(self.day_of(time))
        with self._lock:
            self._spend[slot] += dollars

    def try_charge(self, time: float, dollars: float) -> bool:
        """Charge only if the day's remaining budget covers it (atomically).

        Unlike the engine's snapshot-then-charge pattern (which tolerates a
        bounded overshoot of one in-flight segment per shard), this is the
        strict reservation primitive: the check and the charge hold the lock
        together, so concurrent shards can never jointly overspend a day.
        """
        if dollars < 0:
            raise ConfigurationError("cannot charge negative dollars")
        if self.daily_budget_dollars is None:
            if dollars:
                self.charge(time, dollars)
            return True
        slot = self._slot(self.day_of(time))
        with self._lock:
            if self._spend[slot] + dollars > self.daily_budget_dollars + 1e-12:
                return False
            self._spend[slot] += dollars
            return True

    @property
    def spend_by_day(self) -> Dict[int, float]:
        """Snapshot of non-zero day buckets, keyed by absolute day index."""
        with self._lock:
            values = list(self._spend)
        return {
            self.base_day + slot: value
            for slot, value in enumerate(values)
            if value != 0.0
        }

    @property
    def total_dollars(self) -> float:
        """Total spend across every day bucket."""
        with self._lock:
            return sum(self._spend)
