"""Figure-spec registry: registration validation and payload schemas."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.figures import (
    figure_names,
    figure_spec,
    register_figure,
    unregister_figure,
    validate_payload,
    validate_schema,
)

VALID_KWARGS = dict(
    title="A test figure",
    paper_reference="Figure 0",
    claim="something holds",
    schema={"rows": [{"x": "number"}]},
)


@pytest.fixture
def temp_figure():
    """Register a throwaway spec and always clean it up."""
    registered = []

    def factory(figure_id="zz_test_figure", **overrides):
        kwargs = dict(VALID_KWARGS)
        kwargs.update(overrides)
        decorator = register_figure(figure_id, **kwargs)
        registered.append(figure_id)
        return decorator

    yield factory
    for figure_id in registered:
        unregister_figure(figure_id)


class TestRegistration:
    def test_register_and_resolve(self, temp_figure):
        @temp_figure()
        def runner(ctx):
            return {}

        spec = figure_spec("zz_test_figure")
        assert spec.title == "A test figure"
        assert "zz_test_figure" in figure_names()
        # The implicit headline/checks entries are merged into the schema.
        assert "headline" in spec.schema and "checks" in spec.schema

    def test_duplicate_id_rejected(self, temp_figure):
        @temp_figure()
        def runner(ctx):
            return {}

        with pytest.raises(ConfigurationError, match="already registered"):
            register_figure("zz_test_figure", **VALID_KWARGS)

    def test_builtin_ids_are_taken(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_figure("fig04", **VALID_KWARGS)

    @pytest.mark.parametrize("bad_id", ["", "Fig04", "fig 4", "4fig", "fig-04"])
    def test_malformed_ids_rejected(self, bad_id):
        with pytest.raises(ConfigurationError, match="invalid figure id"):
            register_figure(bad_id, **VALID_KWARGS)

    def test_missing_schema_rejected(self):
        kwargs = dict(VALID_KWARGS)
        kwargs["schema"] = None
        with pytest.raises(ConfigurationError, match="schema is required"):
            register_figure("zz_no_schema", **kwargs)

    def test_empty_schema_rejected(self):
        kwargs = dict(VALID_KWARGS)
        kwargs["schema"] = {}
        with pytest.raises(ConfigurationError, match="at least one key"):
            register_figure("zz_empty_schema", **kwargs)

    def test_invalid_schema_type_rejected(self):
        kwargs = dict(VALID_KWARGS)
        kwargs["schema"] = {"rows": "float64"}
        with pytest.raises(ConfigurationError, match="invalid schema"):
            register_figure("zz_bad_schema", **kwargs)

    def test_missing_claim_rejected(self):
        kwargs = dict(VALID_KWARGS)
        kwargs["claim"] = ""
        with pytest.raises(ConfigurationError, match="claim are required"):
            register_figure("zz_no_claim", **kwargs)

    def test_unknown_figure_lookup(self):
        with pytest.raises(ConfigurationError, match="unknown figure"):
            figure_spec("zz_never_registered")


class TestSchemaValidation:
    def test_valid_schema_shapes(self):
        schema = {
            "scalar": "number",
            "optional": "str?",
            "rows": [{"a": "int", "b": "bool"}],
            "series": ["number"],
            "nested": {"inner": "str", "deep": [{"x": "number"}]},
        }
        assert validate_schema(schema) == []

    def test_unknown_type_reported_with_path(self):
        problems = validate_schema({"rows": [{"a": "floaty"}]})
        assert len(problems) == 1
        assert "payload.rows[].a" in problems[0]

    def test_payload_ok(self):
        schema = {"rows": [{"x": "number"}], "note": "str?"}
        payload = {"rows": [{"x": 1.5}, {"x": 2}], "extra": "allowed"}
        assert validate_payload(payload, schema) == []

    def test_missing_required_key(self):
        assert any(
            "missing required key" in p
            for p in validate_payload({}, {"rows": [{"x": "number"}]})
        )

    def test_optional_key_may_be_absent_or_none(self):
        schema = {"factor": "number?"}
        assert validate_payload({}, schema) == []
        assert validate_payload({"factor": None}, schema) == []
        assert validate_payload({"factor": 2.0}, schema) == []

    def test_wrong_scalar_type(self):
        problems = validate_payload({"rows": [{"x": "nope"}]}, {"rows": [{"x": "number"}]})
        assert any("expected number, got str" in p for p in problems)

    def test_bool_is_not_a_number(self):
        problems = validate_payload({"x": True}, {"x": "number"})
        assert any("got bool" in p for p in problems)

    def test_row_list_type_mismatch(self):
        problems = validate_payload({"rows": "not a list"}, {"rows": [{"x": "int"}]})
        assert any("expected a list" in p for p in problems)


class TestBuiltinCatalog:
    EXPECTED = {
        "fig03", "fig04", "fig05_11", "fig06_12", "fig13", "fig14", "fig15",
        "fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "fig22",
        "fig23", "table1", "table6", "fleet_scaling", "offline_refit",
        "fleet_service_scaling", "fleet_joint_planning", "regime_shift",
    }

    def test_every_legacy_benchmark_is_registered(self):
        assert self.EXPECTED.issubset(set(figure_names()))

    def test_every_spec_declares_claim_and_reference(self):
        for figure_id in self.EXPECTED:
            spec = figure_spec(figure_id)
            assert spec.claim and spec.paper_reference and spec.title
            assert validate_schema(dict(spec.schema)) == []
