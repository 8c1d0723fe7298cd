"""Per-rule tests: each Table I pattern fires where it should and stays
quiet where it should not."""

import pytest

from repro.analyzer import analyze_source


def rule_ids(source: str) -> list[str]:
    return [f.rule_id for f in analyze_source(source)]


def findings_for(source: str, rule_id: str):
    return [f for f in analyze_source(source) if f.rule_id == rule_id]


class TestR01NumericType:
    def test_decimal_in_loop_flagged(self):
        src = (
            "from decimal import Decimal\n"
            "def f(xs):\n"
            "    for x in xs:\n"
            "        y = Decimal(x)\n"
        )
        assert "R01_NUMERIC_TYPE" in rule_ids(src)

    def test_decimal_outside_loop_not_flagged(self):
        src = "from decimal import Decimal\ny = Decimal('1.5')\n"
        assert "R01_NUMERIC_TYPE" not in rule_ids(src)

    def test_fraction_in_loop_flagged(self):
        src = (
            "from fractions import Fraction\n"
            "def f(n):\n"
            "    for i in range(n):\n"
            "        q = Fraction(i, 7)\n"
        )
        assert "R01_NUMERIC_TYPE" in rule_ids(src)

    def test_float_counter_incremented_by_int_flagged(self):
        src = (
            "def f(xs):\n"
            "    count = 0.0\n"
            "    for x in xs:\n"
            "        count += 1\n"
            "    return count\n"
        )
        assert "R01_NUMERIC_TYPE" in rule_ids(src)

    def test_int_counter_not_flagged(self):
        src = (
            "def f(xs):\n"
            "    count = 0\n"
            "    for x in xs:\n"
            "        count += 1\n"
        )
        assert "R01_NUMERIC_TYPE" not in rule_ids(src)


class TestR02SciNotation:
    def test_long_zero_float_flagged(self):
        assert "R02_SCI_NOTATION" in rule_ids("x = 1000000.0\n")

    def test_scientific_form_not_flagged(self):
        assert "R02_SCI_NOTATION" not in rule_ids("x = 1e6\n")

    def test_small_float_not_flagged(self):
        assert "R02_SCI_NOTATION" not in rule_ids("x = 3.14\n")

    def test_leading_zeros_fraction_flagged(self):
        assert "R02_SCI_NOTATION" in rule_ids("x = 0.0000001\n")

    def test_underscored_literal_still_detected(self):
        assert "R02_SCI_NOTATION" in rule_ids("x = 10_000_000.0\n")


class TestR03Boxing:
    def test_np_float64_in_loop_flagged(self):
        src = (
            "import numpy as np\n"
            "def f(xs):\n"
            "    for x in xs:\n"
            "        y = np.float64(x) * 2\n"
        )
        assert "R03_BOXING" in rule_ids(src)

    def test_bare_float64_after_from_import_flagged(self):
        src = (
            "from numpy import float64\n"
            "def f(xs):\n"
            "    for x in xs:\n"
            "        y = float64(x)\n"
        )
        assert "R03_BOXING" in rule_ids(src)

    def test_vectorized_use_not_flagged(self):
        src = "import numpy as np\narr = np.zeros(10, dtype=np.float64)\n"
        assert "R03_BOXING" not in rule_ids(src)

    def test_item_roundtrip_in_loop_flagged(self):
        src = (
            "def f(a, n):\n"
            "    s = 0\n"
            "    for i in range(n):\n"
            "        s += a[i].item()\n"
        )
        assert "R03_BOXING" in rule_ids(src)


class TestR04GlobalInLoop:
    def test_module_global_read_in_loop_flagged(self):
        src = (
            "RATE = 0.07\n"
            "def f(xs):\n"
            "    t = 0.0\n"
            "    for x in xs:\n"
            "        t += x * RATE\n"
        )
        found = findings_for(src, "R04_GLOBAL_IN_LOOP")
        assert len(found) == 1
        assert "RATE" in found[0].message

    def test_local_binding_not_flagged(self):
        src = (
            "RATE = 0.07\n"
            "def f(xs):\n"
            "    rate = RATE\n"
            "    t = 0.0\n"
            "    for x in xs:\n"
            "        t += x * rate\n"
        )
        assert "R04_GLOBAL_IN_LOOP" not in rule_ids(src)

    def test_builtin_in_loop_not_flagged(self):
        src = (
            "def f(xs):\n"
            "    out = []\n"
            "    for x in xs:\n"
            "        out.append(len(x))\n"
        )
        assert "R04_GLOBAL_IN_LOOP" not in rule_ids(src)

    def test_module_level_loop_not_flagged(self):
        # At module level, globals ARE the local namespace; no win.
        src = "N = 3\nfor i in range(N):\n    print(i)\n"
        assert "R04_GLOBAL_IN_LOOP" not in rule_ids(src)

    def test_each_name_flagged_once_per_loop(self):
        src = (
            "A = 1\n"
            "def f(n):\n"
            "    s = 0\n"
            "    for i in range(n):\n"
            "        s += A + A + A\n"
        )
        assert len(findings_for(src, "R04_GLOBAL_IN_LOOP")) == 1

    def test_paper_overhead_attached(self):
        src = (
            "G = 2\n"
            "def f(n):\n"
            "    s = 0\n"
            "    for i in range(n):\n"
            "        s += G\n"
        )
        assert findings_for(src, "R04_GLOBAL_IN_LOOP")[0].overhead_percent == 17700.0


class TestR05Modulus:
    def test_power_of_two_suggests_bitmask(self):
        src = (
            "def f(n):\n"
            "    for i in range(n):\n"
            "        if i % 8 == 0:\n"
            "            pass\n"
        )
        found = findings_for(src, "R05_MODULUS")
        assert len(found) == 1
        assert "x & 7" in found[0].message

    def test_generic_modulus_in_loop_flagged(self):
        src = (
            "def f(n, k):\n"
            "    for i in range(n):\n"
            "        r = i % k\n"
        )
        assert "R05_MODULUS" in rule_ids(src)

    def test_modulus_outside_loop_not_flagged(self):
        assert "R05_MODULUS" not in rule_ids("def f(a, b):\n    return a % b\n")

    def test_string_formatting_percent_not_flagged(self):
        src = (
            "def f(xs):\n"
            "    for x in xs:\n"
            "        print('%s!' % x)\n"
        )
        assert "R05_MODULUS" not in rule_ids(src)

    def test_paper_overhead_1620(self):
        src = (
            "def f(n):\n"
            "    for i in range(n):\n"
            "        r = i % 3\n"
        )
        assert findings_for(src, "R05_MODULUS")[0].overhead_percent == 1620.0


class TestR06Ternary:
    def test_ternary_in_loop_flagged(self):
        src = (
            "def f(xs):\n"
            "    out = []\n"
            "    for x in xs:\n"
            "        out.append(1 if x > 0 else -1)\n"
        )
        assert "R06_TERNARY" in rule_ids(src)

    def test_ternary_outside_loop_not_flagged(self):
        assert "R06_TERNARY" not in rule_ids("def f(x):\n    return 1 if x else 0\n")

    def test_chained_ternary_flagged_anywhere(self):
        src = "def f(x):\n    return 1 if x > 2 else 2 if x > 1 else 3\n"
        assert "R06_TERNARY" in rule_ids(src)


class TestR07ShortCircuit:
    def test_expensive_before_cheap_flagged(self):
        src = "def f(x, flag):\n    return compute(x) and flag\n"
        assert "R07_SHORT_CIRCUIT" in rule_ids(src)

    def test_cheap_before_expensive_not_flagged(self):
        src = "def f(x, flag):\n    return flag and compute(x)\n"
        assert "R07_SHORT_CIRCUIT" not in rule_ids(src)

    def test_two_calls_not_flagged(self):
        # No reordering hint available when both sides are expensive.
        src = "def f(x):\n    return g(x) and h(x)\n"
        assert "R07_SHORT_CIRCUIT" not in rule_ids(src)

    def test_or_chain_flagged(self):
        src = "def f(x, done):\n    return check(x) or done\n"
        assert "R07_SHORT_CIRCUIT" in rule_ids(src)

    def test_one_finding_per_boolop(self):
        src = "def f(x, a, b):\n    return g(x) and a and b\n"
        assert len(findings_for(src, "R07_SHORT_CIRCUIT")) == 1

    @pytest.mark.parametrize(
        "chain",
        [
            "isinstance(node, T) and node.attr == v",
            "isinstance(node, T) and isinstance(node.target, U) "
            "and node.target.id == v",
            "issubclass(cls, T) and cls.kind",
            "hasattr(obj, 'items') and obj.items[0] == v",
            "isinstance(rows[0], T) and rows[0][1] == v",
        ],
    )
    def test_type_guard_chain_not_flagged(self, chain):
        # The later read depends on the guard: it cannot move first.
        src = f"def f(node, cls, obj, rows, T, U, v):\n    return {chain}\n"
        assert "R07_SHORT_CIRCUIT" not in rule_ids(src)

    def test_guard_of_an_unread_name_still_flagged(self):
        src = "def f(x, y, T, flag):\n    return isinstance(x, T) and flag\n"
        assert "R07_SHORT_CIRCUIT" in rule_ids(src)

    def test_call_before_flag_still_flagged_beside_guards(self):
        src = "def f(x, flag):\n    return f(x) and flag\n"
        assert "R07_SHORT_CIRCUIT" in rule_ids(src)


class TestR08StrConcat:
    def test_augassign_concat_flagged(self):
        src = (
            "def f(names):\n"
            "    out = ''\n"
            "    for n in names:\n"
            "        out += n\n"
            "    return out\n"
        )
        assert "R08_STR_CONCAT" in rule_ids(src)

    def test_longhand_concat_flagged(self):
        src = (
            "def f(names):\n"
            "    out = ''\n"
            "    for n in names:\n"
            "        out = out + n\n"
        )
        assert "R08_STR_CONCAT" in rule_ids(src)

    def test_fstring_value_flagged_even_without_init(self):
        src = (
            "def f(rows, acc):\n"
            "    for r in rows:\n"
            "        acc += f'{r},'\n"
        )
        assert "R08_STR_CONCAT" in rule_ids(src)

    def test_numeric_accumulation_not_flagged(self):
        src = (
            "def f(xs):\n"
            "    total = 0\n"
            "    for x in xs:\n"
            "        total += x\n"
        )
        assert "R08_STR_CONCAT" not in rule_ids(src)

    def test_join_pattern_not_flagged(self):
        src = (
            "def f(names):\n"
            "    parts = []\n"
            "    for n in names:\n"
            "        parts.append(n)\n"
            "    return ''.join(parts)\n"
        )
        assert "R08_STR_CONCAT" not in rule_ids(src)

    def test_concat_outside_loop_not_flagged(self):
        src = "def f(a, b):\n    out = ''\n    out += a + b\n    return out\n"
        assert "R08_STR_CONCAT" not in rule_ids(src)


class TestR09StrCompare:
    def test_find_not_equal_minus_one_flagged(self):
        assert "R09_STR_COMPARE" in rule_ids(
            "def f(s, sub):\n    return s.find(sub) != -1\n"
        )

    def test_find_ge_zero_flagged(self):
        assert "R09_STR_COMPARE" in rule_ids(
            "def f(s, sub):\n    return s.find(sub) >= 0\n"
        )

    def test_strcoll_equality_flagged(self):
        assert "R09_STR_COMPARE" in rule_ids(
            "import locale\ndef f(a, b):\n    return locale.strcoll(a, b) == 0\n"
        )

    def test_in_operator_not_flagged(self):
        assert "R09_STR_COMPARE" not in rule_ids(
            "def f(s, sub):\n    return sub in s\n"
        )

    def test_find_used_as_index_not_flagged(self):
        assert "R09_STR_COMPARE" not in rule_ids(
            "def f(s, sub):\n    return s[: s.find(sub)]\n"
        )

    def test_paper_overhead_33(self):
        found = findings_for(
            "def f(s, t):\n    return s.find(t) != -1\n", "R09_STR_COMPARE"
        )
        assert found[0].overhead_percent == 33.0


class TestR10ArrayCopy:
    def test_indexed_copy_loop_flagged(self):
        src = (
            "def f(src_arr):\n"
            "    dst = [0] * len(src_arr)\n"
            "    for i in range(len(src_arr)):\n"
            "        dst[i] = src_arr[i]\n"
        )
        found = findings_for(src, "R10_ARRAY_COPY")
        assert len(found) == 1
        assert "dst[:] = src_arr" in found[0].message

    def test_append_copy_loop_flagged(self):
        src = (
            "def f(src_arr):\n"
            "    dst = []\n"
            "    for x in src_arr:\n"
            "        dst.append(x)\n"
        )
        found = findings_for(src, "R10_ARRAY_COPY")
        assert len(found) == 1
        assert "extend" in found[0].message

    def test_transforming_loop_not_flagged(self):
        src = (
            "def f(src_arr):\n"
            "    dst = []\n"
            "    for x in src_arr:\n"
            "        dst.append(x * 2)\n"
        )
        assert "R10_ARRAY_COPY" not in rule_ids(src)

    def test_in_place_update_not_flagged(self):
        src = (
            "def f(a):\n"
            "    for i in range(len(a)):\n"
            "        a[i] = a[i]\n"
        )
        assert "R10_ARRAY_COPY" not in rule_ids(src)


class TestR11Traversal:
    def test_column_major_nested_subscript_flagged(self):
        src = (
            "def f(a, n, m):\n"
            "    s = 0\n"
            "    for j in range(m):\n"
            "        for i in range(n):\n"
            "            s += a[i][j]\n"
            "    return s\n"
        )
        assert "R11_TRAVERSAL" in rule_ids(src)

    def test_column_major_tuple_subscript_flagged(self):
        src = (
            "def f(a, n, m):\n"
            "    s = 0\n"
            "    for j in range(m):\n"
            "        for i in range(n):\n"
            "            s += a[i, j]\n"
            "    return s\n"
        )
        assert "R11_TRAVERSAL" in rule_ids(src)

    def test_row_major_not_flagged(self):
        src = (
            "def f(a, n, m):\n"
            "    s = 0\n"
            "    for i in range(n):\n"
            "        for j in range(m):\n"
            "            s += a[i][j]\n"
            "    return s\n"
        )
        assert "R11_TRAVERSAL" not in rule_ids(src)

    def test_single_loop_not_flagged(self):
        src = (
            "def f(a, n):\n"
            "    s = 0\n"
            "    for i in range(n):\n"
            "        s += a[i][0]\n"
        )
        assert "R11_TRAVERSAL" not in rule_ids(src)

    def test_paper_overhead_793(self):
        src = (
            "def f(a, n, m):\n"
            "    s = 0\n"
            "    for j in range(m):\n"
            "        for i in range(n):\n"
            "            s += a[i][j]\n"
        )
        assert findings_for(src, "R11_TRAVERSAL")[0].overhead_percent == 793.0


class TestR12ExceptionFlow:
    def test_trivial_handler_in_loop_flagged(self):
        src = (
            "def f(d, keys):\n"
            "    out = []\n"
            "    for k in keys:\n"
            "        try:\n"
            "            out.append(d[k])\n"
            "        except KeyError:\n"
            "            pass\n"
        )
        assert "R12_EXCEPTION_FLOW" in rule_ids(src)

    def test_continue_handler_flagged(self):
        src = (
            "def f(xs):\n"
            "    for x in xs:\n"
            "        try:\n"
            "            y = int(x)\n"
            "        except ValueError:\n"
            "            continue\n"
        )
        assert "R12_EXCEPTION_FLOW" in rule_ids(src)

    def test_substantive_handler_not_flagged(self):
        src = (
            "def f(d, keys, log):\n"
            "    for k in keys:\n"
            "        try:\n"
            "            v = d[k]\n"
            "        except KeyError:\n"
            "            log.warn(k)\n"
            "            v = None\n"
        )
        assert "R12_EXCEPTION_FLOW" not in rule_ids(src)

    def test_try_outside_loop_not_flagged(self):
        src = (
            "def f(d, k):\n"
            "    try:\n"
            "        return d[k]\n"
            "    except KeyError:\n"
            "        pass\n"
        )
        assert "R12_EXCEPTION_FLOW" not in rule_ids(src)

    def test_io_error_handler_not_flagged(self):
        # OSError is genuinely exceptional; EAFP is right there.
        src = (
            "def f(paths):\n"
            "    for p in paths:\n"
            "        try:\n"
            "            open(p)\n"
            "        except OSError:\n"
            "            pass\n"
        )
        assert "R12_EXCEPTION_FLOW" not in rule_ids(src)


class TestR13ObjectChurn:
    def test_re_compile_in_loop_flagged(self):
        src = (
            "import re\n"
            "def f(lines):\n"
            "    for line in lines:\n"
            "        pat = re.compile('a+b')\n"
        )
        assert "R13_OBJECT_CHURN" in rule_ids(src)

    def test_re_compile_outside_loop_not_flagged(self):
        src = "import re\npat = re.compile('a+b')\n"
        assert "R13_OBJECT_CHURN" not in rule_ids(src)

    def test_local_class_constant_args_flagged(self):
        src = (
            "class Point:\n"
            "    def __init__(self, x, y):\n"
            "        self.x, self.y = x, y\n"
            "def f(n):\n"
            "    for i in range(n):\n"
            "        origin = Point(0, 0)\n"
        )
        assert "R13_OBJECT_CHURN" in rule_ids(src)

    def test_varying_args_not_flagged(self):
        src = (
            "class Point:\n"
            "    pass\n"
            "def f(xs):\n"
            "    for x in xs:\n"
            "        p = Point(x)\n"
        )
        assert "R13_OBJECT_CHURN" not in rule_ids(src)

    def test_dynamic_compile_not_flagged(self):
        src = (
            "import re\n"
            "def f(patterns):\n"
            "    for p in patterns:\n"
            "        pat = re.compile(p)\n"
        )
        assert "R13_OBJECT_CHURN" not in rule_ids(src)
