"""Greedy hill climbing over discrete configuration spaces.

VideoStorm and Skyscraper (Appendix A.1) filter the exponentially large set of
knob configurations with greedy hill climbing: starting from a configuration,
repeatedly move to the best neighbouring configuration (one knob changed by
one step) until no neighbour improves the objective.  The configuration
filter (:mod:`repro.core.filtering`) restarts the climb from several starts;
the configurations visited approximate the work-quality Pareto frontier.
"""

from __future__ import annotations

from typing import Callable, Hashable, List, Sequence, Set, Tuple

from repro.errors import ConfigurationError

Configuration = Tuple[Hashable, ...]


def neighbours(
    configuration: Configuration,
    domains: Sequence[Sequence[Hashable]],
) -> List[Configuration]:
    """All configurations that differ from ``configuration`` in one knob by one step."""
    if len(configuration) != len(domains):
        raise ConfigurationError("configuration length must match number of knob domains")
    result: List[Configuration] = []
    for knob_index, domain in enumerate(domains):
        try:
            position = list(domain).index(configuration[knob_index])
        except ValueError as exc:
            raise ConfigurationError(
                f"value {configuration[knob_index]!r} not in domain of knob {knob_index}"
            ) from exc
        for offset in (-1, 1):
            neighbour_position = position + offset
            if 0 <= neighbour_position < len(domain):
                candidate = list(configuration)
                candidate[knob_index] = domain[neighbour_position]
                result.append(tuple(candidate))
    return result


def hill_climb(
    domains: Sequence[Sequence[Hashable]],
    objective: Callable[[Configuration], float],
    start: Configuration = None,
    max_steps: int = 1000,
) -> Tuple[Configuration, float, List[Configuration]]:
    """Greedy hill climbing maximizing ``objective`` over the knob lattice.

    Args:
        domains: ordered value domain of each knob (cheap to expensive order
            is conventional but not required).
        objective: function scoring a configuration; higher is better.
        start: optional starting configuration; defaults to the first value of
            every domain (the cheapest configuration).
        max_steps: safety bound on the number of moves.

    Returns:
        ``(best_configuration, best_score, visited)`` where ``visited`` lists
        every configuration whose objective was evaluated, in evaluation
        order.  Callers use ``visited`` to assemble Pareto candidate sets.
    """
    if not domains or any(len(domain) == 0 for domain in domains):
        raise ConfigurationError("every knob domain must be non-empty")
    current: Configuration = tuple(start) if start is not None else tuple(
        domain[0] for domain in domains
    )
    current_score = objective(current)
    visited: List[Configuration] = [current]
    seen: Set[Configuration] = {current}

    for _ in range(max_steps):
        best_neighbour = None
        best_score = current_score
        for candidate in neighbours(current, domains):
            if candidate not in seen:
                seen.add(candidate)
                visited.append(candidate)
            score = objective(candidate)
            if score > best_score:
                best_score = score
                best_neighbour = candidate
        if best_neighbour is None:
            break
        current = best_neighbour
        current_score = best_score

    return current, current_score, visited

