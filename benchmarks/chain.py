"""Shared workload for the fixpoint benchmarks: a preset plus a copy chain.

``c0 = new T(); c1 = c0; ... c{depth-1} = c{depth-2}`` appended to one
method of a fact preset.  Deep def-use chains like this are what drive
iteration counts in real points-to runs.
"""

from repro.analyses import preset


def chained_facts(preset_name, depth):
    """Fresh facts for ``preset_name`` plus one ``depth``-long copy chain.

    Rebuilt on every call, so two universes built from two calls start
    from identical declarations and interning.
    """
    facts = preset(preset_name)
    method = facts.methods[0]
    prev = None
    for i in range(depth):
        var = f"chain{i}"
        facts.variables.append(var)
        facts.method_vars.append((method, var))
        facts.var_types.append((var, facts.classes[0]))
        if prev is None:
            facts.allocs.append((var, "chainsite"))
            facts.alloc_types.append(("chainsite", facts.classes[-1]))
        else:
            facts.assigns.append((var, prev))
        prev = var
    return facts
