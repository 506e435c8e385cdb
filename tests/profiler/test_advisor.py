"""A user-chosen bit ordering reaches the interpreter (section 3.2.1).

Section 4.3's tuning loop ends in a new physical domain assignment or
relative bit ordering; ``CompiledProgram.interpreter(bit_order=...)``
is how an ordering chosen by hand is applied to a compiled program.
"""

from repro.jedd.compiler import compile_source
from tests.jedd.helpers import FIGURE4, FIGURE4_DATA


class TestCompiledIntegration:
    def test_advised_interpreter_matches_default(self):
        cp = compile_source(FIGURE4)

        def run(**kwargs):
            it = cp.interpreter(**kwargs)
            it.set_global(
                "declaresMethod",
                it.relation_of(
                    ["type", "signature", "method"], FIGURE4_DATA["declares"]
                ),
            )
            it.call(
                "resolve",
                it.relation_of(
                    ["rectype", "signature"], FIGURE4_DATA["receivers"]
                ),
                it.relation_of(
                    ["subtype", "supertype"], FIGURE4_DATA["extend"]
                ),
            )
            return it, set(it.global_relation("answer").tuples())

        _, default = run()
        # Signatures on top, the three type domains interleaved below.
        order = [["S1"], ["T1", "T2", "T3"], ["M1"]]
        it, ordered = run(bit_order=order)
        levels = {
            pd: sorted(it.universe.get_physdom(pd).levels)
            for pd in ("S1", "T1", "M1")
        }
        assert levels == {
            "S1": [0, 1, 2, 3],
            "T1": [4, 7, 10, 13],
            "M1": [16, 17, 18, 19],
        }
        assert default == ordered == FIGURE4_DATA["answer"]
