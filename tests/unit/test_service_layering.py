"""Layering contract of the service package.

The storage and scoring engines live in :mod:`repro.devices.store` and
:mod:`repro.core.scoring`; :mod:`repro.service` re-exports them under their
historical names (the PR-2 ``repro.service.store`` / ``repro.service.batch``
submodule shims are gone), while the low-level modules must be importable
without pulling the service layer in — with no PEP 562 lazy ``__getattr__``
or ``TYPE_CHECKING`` import-cycle workarounds anywhere on the old cycle.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.core.authenticator
import repro.core.scoring
import repro.devices.cloud
import repro.devices.store
import repro.service


class TestLegacyImportPaths:
    def test_package_reexports_resolve_to_new_homes(self):
        from repro.service import (
            ANY_CONTEXT,
            BatchScorer,
            BatchScoreResult,
            FeatureStore,
            RingBuffer,
            StoreStats,
            score_fleet,
            score_requests,
        )

        assert FeatureStore is repro.devices.store.FeatureStore
        assert RingBuffer is repro.devices.store.RingBuffer
        assert StoreStats is repro.devices.store.StoreStats
        assert ANY_CONTEXT is repro.devices.store.ANY_CONTEXT
        assert BatchScorer is repro.core.scoring.BatchScorer
        assert BatchScoreResult is repro.core.scoring.BatchScoreResult
        assert score_fleet is repro.core.scoring.score_fleet
        assert score_requests is repro.core.scoring.score_requests

    def test_deprecated_submodule_shims_are_gone(self):
        """Every import goes through the real homes now; the PR-2 shims
        (``repro.service.store`` / ``repro.service.batch``) were removed."""
        with pytest.raises(ModuleNotFoundError):
            import repro.service.store  # noqa: F401
        with pytest.raises(ModuleNotFoundError):
            import repro.service.batch  # noqa: F401

    def test_every_declared_service_export_resolves(self):
        for name in repro.service.__all__:
            assert getattr(repro.service, name) is not None

    def test_service_and_gateway_api_surface(self):
        # The names PR 1 exported must all still be importable.
        from repro.service import (  # noqa: F401
            AuthenticationGateway,
            AuthenticationResponse,
            Counter,
            DriftResponse,
            EnrollResponse,
            FleetConfig,
            FleetReport,
            FleetSimulator,
            ModelRecord,
            ModelRegistry,
            TelemetryHub,
        )
        from repro.service.gateway import (  # noqa: F401
            AuthenticationResponse as GatewayAuthenticationResponse,
            DriftResponse as GatewayDriftResponse,
            EnrollResponse as GatewayEnrollResponse,
        )


class TestNoCycleWorkarounds:
    def test_service_package_imports_eagerly(self):
        assert not hasattr(repro.service, "__getattr__")
        # Every export is a real module attribute, not a lazy resolution.
        for name in repro.service.__all__:
            assert name in vars(repro.service)

    def test_no_lazy_or_type_checking_guards_in_sources(self):
        for module in (
            repro.service,
            repro.devices.cloud,
            repro.core.authenticator,
            repro.core.scoring,
        ):
            source = Path(module.__file__).read_text()
            assert "__getattr__" not in source, module.__name__
            assert "TYPE_CHECKING" not in source, module.__name__

    def test_low_layers_import_without_service(self):
        """devices/core must be importable with repro.service never loaded."""
        script = (
            "import sys\n"
            "import repro.devices.cloud, repro.core.scoring, repro.core.authenticator\n"
            "loaded = [m for m in sys.modules if m.startswith('repro.service')]\n"
            "assert not loaded, loaded\n"
            "print('ok')\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={
                **os.environ,
                "PYTHONPATH": str(Path(repro.service.__file__).parents[2]),
            },
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "ok"
