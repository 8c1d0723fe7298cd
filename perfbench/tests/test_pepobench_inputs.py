"""Seeded inputs: the same seed gives the same inputs, another changes them."""

import sys

from pepobench import inputs


POOL = inputs.stratified_pool(12, 0.25)


def _corpus_digest(seed):
    subprojects = inputs.deal_subprojects(seed, POOL, 3)
    return inputs.digest_texts(
        (f"{i}/{s.origin}", s.text) for i, sp in enumerate(subprojects) for s in sp
    )


def test_corpus_digest_is_a_function_of_the_seed():
    assert _corpus_digest(1) == _corpus_digest(1)
    assert _corpus_digest(1) != _corpus_digest(2)


def test_subprojects_partition_the_pool_one_tier_at_a_time():
    subprojects = inputs.deal_subprojects(3, POOL, 3)
    assert sorted(s.origin for sp in subprojects for s in sp) == sorted(
        s.origin for s in POOL
    )
    largest = sorted(POOL, key=lambda s: -s.loc)[:3]
    assert sorted(sp[0].origin for sp in subprojects) == sorted(
        s.origin for s in largest
    )


def test_pool_spans_the_size_ranks():
    sizes = [s.loc for s in POOL]
    assert sizes == sorted(sizes)
    assert sizes[0] < 50 < 1000 < sizes[-1]


def test_draw_skips_test_and_idle_directories():
    for origin in inputs.stdlib_files():
        parts = origin.split("/")[:-1]
        assert not {"test", "idlelib", "lib2to3"} & set(parts)


def test_edit_and_keystroke_scripts_are_seeded():
    assert inputs.edit_script(5, 40, 30) == inputs.edit_script(5, 40, 30)
    assert inputs.edit_script(5, 40, 30) != inputs.edit_script(6, 40, 30)
    assert inputs.keystroke_script(5, 7) == inputs.keystroke_script(5, 7)
    assert inputs.keystroke_script(5, 7) != inputs.keystroke_script(6, 7)
    edits = inputs.edit_script(5, 40, 100)
    assert len({edit.snippet for edit in edits}) == len(edits)
    assert sorted(edit.file_index for edit in edits[:40]) == list(range(40))


def test_generated_project_is_seeded():
    a = inputs.generate_callgraph(9, 3000)
    assert a == inputs.generate_callgraph(9, 3000)
    b = inputs.generate_callgraph(10, 3000)
    assert (a.source, a.calls) != (b.source, b.calls)


def _count_calls(source):
    code = compile(source, "<generated>", "exec")
    counted = 0

    def hook(frame, event, arg):
        nonlocal counted
        if event == "call" and frame.f_code.co_filename == "<generated>":
            counted += 1

    namespace = {"__name__": "__main__"}
    sys.setprofile(hook)
    try:
        exec(code, namespace)
    finally:
        sys.setprofile(None)
    return counted - 1  # the module body itself is not a function call


def test_generated_call_count_is_exact():
    for seed in (0, 1, 2):
        project = inputs.generate_callgraph(seed, 500)
        assert _count_calls(project.source) == project.calls
