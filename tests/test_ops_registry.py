"""Operator registry consistency: the cross-module contracts.

These meta-tests pin the invariants the compiler relies on: every view
op must have a registered Access (and, unless explicitly impossible, an
Assign) counterpart; every mutator needs a functional equivalent or
special handling; everything the fuser may admit must be compilable by
the kernel codegen — by identity: the codegen's table holds each row's
own ``kernel``, the one eager execution is derived from as well.
"""

import inspect

import pytest

from repro.backend.kernels import OP_IMPLS
from repro.ops import OpKind, all_ops, get, has
from repro.ops.schema import OpSchema
from repro.runtime.kernels import EAGER, INPLACE, KERNELS


VIEWS = [s for s in all_ops() if s.kind is OpKind.VIEW]
MUTATORS = [s for s in all_ops() if s.kind is OpKind.MUTATING]
FUSABLE = [s for s in all_ops() if s.fusable]


class TestViewContracts:
    @pytest.mark.parametrize("schema", VIEWS, ids=lambda s: s.name)
    def test_access_op_registered(self, schema):
        assert schema.access_op is not None
        assert has(schema.access_op), schema.access_op

    @pytest.mark.parametrize("schema", VIEWS, ids=lambda s: s.name)
    def test_assign_op_registered_or_expand(self, schema):
        if schema.name == "aten::expand":
            assert schema.assign_op is None  # writes through broadcast
            return
        assert schema.assign_op is not None
        assert has(schema.assign_op), schema.assign_op

    @pytest.mark.parametrize("schema", VIEWS, ids=lambda s: s.name)
    def test_access_signature_matches_view(self, schema):
        """Access ops take the identical operand list as their view."""
        view_params = list(inspect.signature(schema.fn).parameters)
        access_params = list(inspect.signature(
            get(schema.access_op).fn).parameters)
        assert len(view_params) == len(access_params), schema.name

    @pytest.mark.parametrize("schema", VIEWS, ids=lambda s: s.name)
    def test_assign_signature_is_base_src_params(self, schema):
        if schema.assign_op is None:
            return
        view_params = list(inspect.signature(schema.fn).parameters)
        assign_params = list(inspect.signature(
            get(schema.assign_op).fn).parameters)
        # (base, src, *view_params[1:])
        assert len(assign_params) == len(view_params) + 1, schema.name


class TestMutatorContracts:
    @pytest.mark.parametrize("schema", MUTATORS, ids=lambda s: s.name)
    def test_functional_equivalent(self, schema):
        if schema.name in ("aten::copy_", "aten::append"):
            return  # handled specially by the converter / containers
        assert schema.functional_op is not None, schema.name
        assert has(schema.functional_op)

    @pytest.mark.parametrize("schema", MUTATORS, ids=lambda s: s.name)
    def test_functional_signature_compatible(self, schema):
        """The converter feeds the mutator's operands verbatim into its
        functional op — arities must admit that."""
        if schema.functional_op is None:
            return
        mut_arity = len(inspect.signature(schema.fn).parameters)
        fop = get(schema.functional_op).fn
        params = inspect.signature(fop).parameters
        required = sum(1 for p in params.values()
                       if p.default is inspect.Parameter.empty
                       and p.kind is not inspect.Parameter.VAR_POSITIONAL)
        assert required <= mut_arity <= len(params), schema.name


class TestCodegenCoverage:
    @pytest.mark.parametrize("schema", FUSABLE, ids=lambda s: s.name)
    def test_every_fusable_op_is_compilable(self, schema):
        """If the fuser may admit it, the kernel codegen must know it —
        otherwise fusion groups fail at first execution — and what the
        codegen runs is the row's one kernel, not a second copy."""
        assert schema.kernel is not None, schema.name
        assert OP_IMPLS[schema.name] is get(schema.name).kernel

    def test_immut_ops_all_compilable(self):
        immut = [s for s in all_ops() if s.name.startswith("immut::")]
        missing = [s.name for s in immut if s.kernel is None
                   or OP_IMPLS.get(s.name) is not s.kernel]
        assert immut and not missing, missing

    def test_views_all_compilable(self):
        missing = [s.name for s in VIEWS if s.kernel is None
                   or OP_IMPLS.get(s.name) is not s.kernel]
        assert not missing, missing


class TestRowsAreTheOps:
    """``KERNELS`` is the only place an op with a row is declared: the
    registry holds one schema per row, derived from it, and no kernel
    that is not a row's."""

    def test_every_row_has_exactly_one_schema(self):
        counts = {name: 0 for name in KERNELS}
        for schema in all_ops():
            if schema.name in counts:
                counts[schema.name] += 1
        assert {n: c for n, c in counts.items() if c != 1} == {}

    def test_schema_is_derived_from_its_row(self):
        wrong = []
        for name, row in KERNELS.items():
            schema = get(name)
            view = name.startswith("aten::") and row.aliases == 0
            if (schema.kernel is not row.kernel or schema.fn is not EAGER[name]
                    or (schema.kind is OpKind.VIEW) is not view
                    or schema.fusable is view):
                wrong.append(name)
        for name, functional in INPLACE.items():
            schema = get(name)
            if (schema.kind is not OpKind.MUTATING or schema.kernel is not None
                    or schema.fn is not EAGER[name]
                    or schema.functional_op != functional):
                wrong.append(name)
        assert wrong == []

    def test_every_kernel_is_a_row(self):
        assert [s.name for s in all_ops()
                if s.kernel is not None and s.name not in KERNELS] == []


class TestSchemaBasics:
    def test_all_names_namespaced(self):
        for schema in all_ops():
            assert "::" in schema.name

    def test_bad_name_rejected(self):
        with pytest.raises(ValueError):
            OpSchema("unnamespaced", OpKind.PURE)

    def test_unknown_lookup_message(self):
        with pytest.raises(KeyError, match="unknown operator"):
            get("aten::not_a_thing")

    def test_kind_predicates(self):
        assert get("aten::select").is_view
        assert get("aten::copy_").is_mutating
        assert get("aten::copy_").has_side_effects
        assert not get("aten::add").has_side_effects

    def test_registry_is_frozen_against_duplicates(self):
        from repro.ops import register
        with pytest.raises(ValueError):
            register(OpSchema("aten::add", OpKind.PURE))
