"""Tests for the H-Si(100)-2x1 surface lattice."""

import pytest
from hypothesis import given, strategies as st

from repro.coords.lattice import LatticeSite, SurfaceLattice, canonical_form
from repro.tech.constants import LATTICE_A_NM, LATTICE_B_NM, LATTICE_C_NM


class TestLatticeSite:
    def test_position_origin(self):
        assert LatticeSite(0, 0, 0).position_nm == (0.0, 0.0)

    def test_dimer_pair_offset(self):
        x, y = LatticeSite(0, 0, 1).position_nm
        assert x == 0.0
        assert y == pytest.approx(LATTICE_C_NM)

    def test_unit_cell_pitch(self):
        x, y = LatticeSite(1, 1, 0).position_nm
        assert x == pytest.approx(LATTICE_A_NM)
        assert y == pytest.approx(LATTICE_B_NM)

    def test_invalid_dimer_index(self):
        with pytest.raises(ValueError):
            LatticeSite(0, 0, 2)

    @given(st.integers(-100, 100), st.integers(-200, 200))
    def test_row_roundtrip(self, n, row):
        site = LatticeSite.from_row(n, row)
        assert site.row == row
        assert site.n == n

    @given(
        st.integers(-50, 50), st.integers(-50, 50),
        st.integers(-20, 20), st.integers(-20, 20),
    )
    def test_translation_composes(self, n, row, dn, drow):
        site = LatticeSite.from_row(n, row)
        assert site.translated(dn, drow).translated(-dn, -drow) == site

    def test_row_spacing_alternates(self):
        y = [LatticeSite.from_row(0, r).position_nm[1] for r in range(4)]
        assert y[1] - y[0] == pytest.approx(LATTICE_C_NM)
        assert y[2] - y[1] == pytest.approx(LATTICE_B_NM - LATTICE_C_NM)
        assert y[3] - y[2] == pytest.approx(LATTICE_C_NM)


class TestSurfaceLattice:
    def test_distance_along_row(self):
        a, b = LatticeSite(0, 0, 0), LatticeSite(2, 0, 0)
        assert SurfaceLattice.distance_nm(a, b) == pytest.approx(2 * LATTICE_A_NM)

    def test_distance_symmetric(self):
        a, b = LatticeSite(1, 2, 0), LatticeSite(4, 0, 1)
        assert SurfaceLattice.distance_nm(a, b) == pytest.approx(
            SurfaceLattice.distance_nm(b, a)
        )

    def test_bounding_box(self):
        sites = [LatticeSite(0, 0, 0), LatticeSite(3, 2, 1)]
        min_x, min_y, max_x, max_y = SurfaceLattice.bounding_box_nm(sites)
        assert (min_x, min_y) == (0.0, 0.0)
        assert max_x == pytest.approx(3 * LATTICE_A_NM)
        assert max_y == pytest.approx(2 * LATTICE_B_NM + LATTICE_C_NM)

    def test_empty_bounding_box(self):
        assert SurfaceLattice.bounding_box_nm([]) == (0.0, 0.0, 0.0, 0.0)

    def test_extent(self):
        sites = [LatticeSite(0, 0, 0), LatticeSite(10, 0, 0)]
        width, height = SurfaceLattice.extent_nm(sites)
        assert width == pytest.approx(10 * LATTICE_A_NM)
        assert height == 0.0


SITE_LISTS = st.lists(
    st.tuples(st.integers(-20, 20), st.integers(-40, 40)),
    min_size=1,
    max_size=12,
    unique=True,
).map(lambda cells: [LatticeSite.from_row(n, row) for n, row in cells])


class TestCanonicalForm:
    @given(
        SITE_LISTS, st.integers(-30, 30), st.integers(-15, 15), st.booleans()
    )
    def test_isometric_images_share_the_form(self, sites, dn, dm, mirror):
        def move(site):
            n = -site.n if mirror else site.n
            return LatticeSite(n + dn, site.m + dm, site.l)

        form = canonical_form(sites)
        assert canonical_form(sites[::-1]).sites == form.sites
        assert canonical_form([move(site) for site in sites]).sites == form.sites

    @given(SITE_LISTS)
    def test_order_maps_every_site_to_its_image(self, sites):
        form = canonical_form(sites)
        assert sorted(form.order) == list(range(len(sites)))
        assert min(site.n for site in form.sites) == 0
        assert min(site.m for site in form.sites) == 0
        for a in range(len(sites)):
            for b in range(a):
                assert SurfaceLattice.distance_nm(
                    form.sites[a], form.sites[b]
                ) == pytest.approx(
                    SurfaceLattice.distance_nm(
                        sites[form.order[a]], sites[form.order[b]]
                    )
                )

    def test_odd_row_shift_is_another_form(self):
        sites = [LatticeSite(0, 0, 0), LatticeSite(3, 1, 1)]
        shifted = [site.translated(0, 1) for site in sites]
        assert canonical_form(shifted).sites != canonical_form(sites).sites

    def test_marks_move_with_the_sites(self):
        symmetric = [LatticeSite(0, 0), LatticeSite(4, 0)]
        left = canonical_form(symmetric, [(LatticeSite(-2, 0), -1)])
        right = canonical_form(symmetric, [(LatticeSite(6, 0), -1)])
        assert (left.sites, left.marks) == (right.sites, right.marks)
        other_charge = canonical_form(symmetric, [(LatticeSite(6, 0), 1)])
        assert other_charge.marks != right.marks
        assert canonical_form(symmetric).marks == ()
