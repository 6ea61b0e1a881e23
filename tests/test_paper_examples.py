"""The worked examples from the paper's tour (§2) and formalisation (§3–§4).

Each test checks that Flux accepts exactly the programs the paper accepts and
rejects buggy variants; together they cover indexed types, existentials,
refinement parameters, strong/weak updates, borrows at joins, polymorphic
instantiation and the refined vector API.
"""

import pytest

from repro.service import verify_source


def assert_verifies(source: str, **kwargs):
    result = verify_source(source, **kwargs)
    assert result.ok, "\n".join(str(d) for d in result.diagnostics)
    return result


def assert_rejected(source: str, function: str = None, **kwargs):
    result = verify_source(source, **kwargs)
    assert not result.ok, "expected a refinement error, but everything verified"
    if function is not None:
        assert any(d.function == function for d in result.diagnostics)
    return result


class TestFig1Refinements:
    IS_POS = """
    #[flux::sig(fn(i32[@n]) -> bool[n > 0])]
    fn is_pos(n: i32) -> bool {
        if n > 0 { true } else { false }
    }
    """

    ABS = """
    #[flux::sig(fn(i32[@x]) -> i32{v: v >= x && v >= 0})]
    fn abs(x: i32) -> i32 {
        if x < 0 { - x } else { x }
    }
    """

    def test_is_pos(self):
        assert_verifies(self.IS_POS)

    def test_abs(self):
        assert_verifies(self.ABS)

    def test_is_pos_wrong_index(self):
        source = """
        #[flux::sig(fn(i32[@n]) -> bool[n > 10])]
        fn is_pos(n: i32) -> bool {
            if n > 0 { true } else { false }
        }
        """
        assert_rejected(source, "is_pos")

    def test_abs_wrong_bound(self):
        source = """
        #[flux::sig(fn(i32[@x]) -> i32{v: v > x})]
        fn abs(x: i32) -> i32 {
            if x < 0 { - x } else { x }
        }
        """
        assert_rejected(source, "abs")

    def test_singleton_arithmetic(self):
        source = """
        #[flux::sig(fn() -> i32[6])]
        fn six() -> i32 { 1 + 2 + 3 }
        """
        assert_verifies(source)

    def test_singleton_arithmetic_wrong(self):
        source = """
        #[flux::sig(fn() -> i32[7])]
        fn seven() -> i32 { 1 + 2 + 3 }
        """
        assert_rejected(source)


class TestFig2Ownership:
    DECR = """
    #[flux::sig(fn(&mut nat))]
    fn decr(x: &mut i32) {
        let y = *x;
        if y > 0 {
            *x = y - 1;
        }
    }
    """

    def test_decr_preserves_invariant(self):
        assert_verifies(self.DECR)

    def test_decr_violation_detected(self):
        source = """
        #[flux::sig(fn(&mut nat))]
        fn decr(x: &mut i32) {
            let y = *x;
            *x = y - 1;
        }
        """
        assert_rejected(source, "decr")

    def test_ref_join(self):
        source = self.DECR + """
        #[flux::sig(fn(bool) -> nat)]
        fn ref_join(z: bool) -> i32 {
            let mut x = 1;
            let mut y = 2;
            let r = if z { &mut x } else { &mut y };
            decr(r);
            x
        }
        """
        assert_verifies(source)

    def test_use_swap_specs_for_free(self):
        source = """
        #[flux::sig(fn() -> nat)]
        fn use_swap() -> i32 {
            let mut x = 0;
            let mut y = 1;
            swap(&mut x, &mut y);
            x
        }
        """
        assert_verifies(source)

    def test_use_swap_singleton_claim_rejected(self):
        # After the swap, x is no longer known to be exactly 0.
        source = """
        #[flux::sig(fn() -> i32[0])]
        fn use_swap() -> i32 {
            let mut x = 0;
            let mut y = 1;
            swap(&mut x, &mut y);
            x
        }
        """
        assert_rejected(source, "use_swap")

    INCR = """
    #[flux::sig(fn(x: &strg i32[@n]) ensures *x: i32[n + 1])]
    fn incr(x: &mut i32) {
        *x += 1;
    }
    """

    def test_incr_strong_update(self):
        assert_verifies(self.INCR)

    def test_incr_wrong_ensures(self):
        source = """
        #[flux::sig(fn(x: &strg i32[@n]) ensures *x: i32[n + 2])]
        fn incr(x: &mut i32) {
            *x += 1;
        }
        """
        assert_rejected(source, "incr")

    def test_incr_client_strong_update(self):
        source = self.INCR + """
        #[flux::sig(fn() -> i32[2])]
        fn client() -> i32 {
            let mut x = 1;
            incr(&mut x);
            x
        }
        """
        assert_verifies(source)

    def test_exclusive_ownership_strong_update(self):
        source = """
        #[flux::sig(fn() -> i32[3])]
        fn f() -> i32 {
            let mut x = 1;
            x += 1;
            x += 1;
            x
        }
        """
        assert_verifies(source)


class TestFig4Vectors:
    INIT_ZEROS = """
    #[flux::sig(fn(usize[@n]) -> RVec<f32>[n])]
    fn init_zeros(n: usize) -> RVec<f32> {
        let mut vec = RVec::new();
        let mut i = 0;
        while i < n {
            vec.push(0.0);
            i += 1;
        }
        vec
    }
    """

    def test_init_zeros_loop_invariant_synthesised(self):
        assert_verifies(self.INIT_ZEROS)

    def test_init_zeros_off_by_one_rejected(self):
        source = """
        #[flux::sig(fn(usize[@n]) -> RVec<f32>[n + 1])]
        fn init_zeros(n: usize) -> RVec<f32> {
            let mut vec = RVec::new();
            let mut i = 0;
            while i < n {
                vec.push(0.0);
                i += 1;
            }
            vec
        }
        """
        assert_rejected(source, "init_zeros")

    def test_vector_access_in_bounds(self):
        source = """
        #[flux::sig(fn(&RVec<i32>{v: v > 0}) -> i32)]
        fn first(v: &RVec<i32>) -> i32 {
            *v.get(0)
        }
        """
        assert_verifies(source)

    def test_vector_access_out_of_bounds_rejected(self):
        source = """
        #[flux::sig(fn(&RVec<i32>) -> i32)]
        fn first(v: &RVec<i32>) -> i32 {
            *v.get(0)
        }
        """
        assert_rejected(source, "first")

    def test_sum_loop_bounds(self):
        source = """
        #[flux::sig(fn(&RVec<i32>) -> i32)]
        fn sum(v: &RVec<i32>) -> i32 {
            let mut total = 0;
            let mut i = 0;
            while i < v.len() {
                total = total + *v.get(i);
                i += 1;
            }
            total
        }
        """
        assert_verifies(source)

    def test_sum_loop_wrong_bound_rejected(self):
        source = """
        #[flux::sig(fn(&RVec<i32>) -> i32)]
        fn sum(v: &RVec<i32>) -> i32 {
            let mut total = 0;
            let mut i = 0;
            while i <= v.len() {
                total = total + *v.get(i);
                i += 1;
            }
            total
        }
        """
        assert_rejected(source, "sum")

    def test_push_through_strong_reference(self):
        source = """
        #[flux::sig(fn(v: &strg RVec<i32>[@n]) ensures *v: RVec<i32>[n + 2])]
        fn push_two(v: &mut RVec<i32>) {
            v.push(1);
            v.push(2);
        }
        """
        assert_verifies(source)

    def test_make_vec_polymorphic_instantiation(self):
        source = """
        #[flux::sig(fn() -> RVec<i32{v: v > 0}>)]
        fn make_vec() -> RVec<i32> {
            let mut vec = RVec::new();
            vec.push(42);
            vec
        }
        """
        assert_verifies(source)

    def test_make_vec_wrong_element_refinement(self):
        source = """
        #[flux::sig(fn() -> RVec<i32{v: v > 100}>)]
        fn make_vec() -> RVec<i32> {
            let mut vec = RVec::new();
            vec.push(42);
            vec
        }
        """
        assert_rejected(source, "make_vec")

    def test_get_mut_preserves_element_invariant(self):
        source = """
        #[flux::sig(fn(&mut RVec<nat>{v: v > 0}))]
        fn bump(v: &mut RVec<i32>) {
            let p = v.get_mut(0);
            *p = 5;
        }
        """
        assert_verifies(source)

    def test_get_mut_element_invariant_violation(self):
        source = """
        #[flux::sig(fn(&mut RVec<nat>{v: v > 0}))]
        fn bump(v: &mut RVec<i32>) {
            let p = v.get_mut(0);
            *p = -5;
        }
        """
        assert_rejected(source, "bump")
