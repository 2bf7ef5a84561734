"""Reference semantics of the exhaustive consensus checker.

:func:`repro.analysis.checker.check_consensus_exhaustive` runs as one
explorer search with a violation predicate: on the compiled kernel for
a ``System``, on the explorer's object-walking loop for its
subclasses.  This is the checker's own object-model BFS that it
replaced, kept as the reference ``tests/test_checker_differential.py``
checks every result field against.  It keys configurations on
``canonical_key`` and tests each configuration for agreement and
validity when it pops it, so ``configs_visited`` counts what was
discovered by that pop, and a violation discovered but not yet popped
when the budget runs out goes unreported.
"""

from collections import deque

from repro.analysis.checker import CheckResult, _config_violations
from repro.errors import ExplorationLimitError


def check_consensus_reference(
    system, inputs, k=1, max_configs=500_000, strict=True
):
    """The checker's result, from its own BFS over configurations."""
    protocol = system.protocol
    root = system.initial_configuration(inputs)
    root_key = protocol.canonical_key(root)
    parents = {root_key: None}
    queue = deque([(root, root_key)])
    result = CheckResult(ok=True)
    all_pids = range(protocol.n)

    def path_to(key):
        steps = []
        cursor = parents[key]
        while cursor is not None:
            parent_key, pid = cursor
            steps.append(pid)
            cursor = parents[parent_key]
        steps.reverse()
        return tuple(steps)

    while queue:
        config, key = queue.popleft()
        found = _config_violations(system, config, inputs, path_to(key), k)
        if found:
            result.violations.extend(found)
            result.ok = False
            result.configs_visited = len(parents)
            return result
        for pid in all_pids:
            if not system.enabled(config, pid):
                continue
            succ, _ = system.step(config, pid)
            succ_key = protocol.canonical_key(succ)
            if succ_key in parents:
                continue
            parents[succ_key] = (key, pid)
            if len(parents) > max_configs:
                if strict:
                    raise ExplorationLimitError(
                        f"reachable graph exceeds {max_configs} "
                        "configurations",
                        visited=len(parents),
                    )
                result.configs_visited = len(parents)
                result.note = (
                    f"bounded verification: no violation within the first "
                    f"{max_configs} configurations (graph not exhausted)"
                )
                return result
            queue.append((succ, succ_key))

    result.configs_visited = len(parents)
    result.exhaustive = True
    return result
