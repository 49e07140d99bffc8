"""Unit tests for edge-list I/O."""

import io

import pytest

from repro.exceptions import DatasetError
from repro.graph.io import (
    read_preference_graph,
    read_social_graph,
    write_preference_graph,
    write_social_graph,
)
from repro.graph.preference_graph import PreferenceGraph
from repro.graph.social_graph import SocialGraph


class TestSocialGraphIO:
    def test_read_basic(self):
        text = "1\t2\n2\t3\n"
        g = read_social_graph(io.StringIO(text))
        assert g.num_users == 3
        assert g.has_edge(1, 2)

    def test_read_skips_comments_and_blanks(self):
        text = "# header comment\n\n1\t2\n"
        g = read_social_graph(io.StringIO(text))
        assert g.num_edges == 1

    def test_read_skip_header(self):
        text = "userID\tfriendID\n1\t2\n"
        g = read_social_graph(io.StringIO(text), skip_header=True)
        assert g.num_edges == 1
        assert "userID" not in g

    def test_read_space_separated(self):
        g = read_social_graph(io.StringIO("a b\n"))
        assert g.has_edge("a", "b")

    def test_read_ignores_self_loops(self):
        g = read_social_graph(io.StringIO("1\t1\n1\t2\n"))
        assert g.num_edges == 1

    def test_read_isolated_single_column(self):
        g = read_social_graph(io.StringIO("1\t2\n7\n"))
        assert 7 in g
        assert g.degree(7) == 0

    def test_roundtrip_preserves_graph(self, tmp_path):
        g = SocialGraph([(1, 2), (2, 3)])
        g.add_user(42)  # isolated
        path = tmp_path / "social.tsv"
        write_social_graph(g, str(path))
        loaded = read_social_graph(str(path))
        assert loaded == g

    def test_id_coercion_int_vs_str(self):
        g = read_social_graph(io.StringIO("1\tx\n"))
        assert 1 in g
        assert "x" in g


class TestPreferenceGraphIO:
    def test_read_two_columns_default_weight(self):
        g = read_preference_graph(io.StringIO("1\t10\n"))
        assert g.weight(1, 10) == 1.0

    def test_read_three_columns(self):
        g = read_preference_graph(io.StringIO("1\t10\t3.5\n"))
        assert g.weight(1, 10) == 3.5

    def test_read_bad_weight_raises(self):
        with pytest.raises(DatasetError):
            read_preference_graph(io.StringIO("1\t10\tnot-a-number\n"))

    def test_read_too_few_columns_raises(self):
        with pytest.raises(DatasetError):
            read_preference_graph(io.StringIO("justone\n"))

    def test_roundtrip(self, tmp_path):
        g = PreferenceGraph()
        g.add_edge(1, "a", weight=2.0)
        g.add_edge(2, "b", weight=1.0)
        path = tmp_path / "prefs.tsv"
        write_preference_graph(g, str(path))
        loaded = read_preference_graph(str(path))
        assert loaded.weight(1, "a") == 2.0
        assert loaded.weight(2, "b") == 1.0
        assert loaded.num_edges == 2

    def test_read_skip_header(self):
        text = "userID\tartistID\tweight\n1\t10\t5\n"
        g = read_preference_graph(io.StringIO(text), skip_header=True)
        assert g.num_edges == 1


class TestErrorContext:
    """Malformed lines report the offending file and 1-based line number."""

    def test_preference_error_carries_path_and_line(self, tmp_path):
        path = tmp_path / "artists.dat"
        path.write_text("# header comment\n1\t10\t3.0\n2\t20\tnot-a-number\n")
        with pytest.raises(DatasetError) as excinfo:
            read_preference_graph(str(path))
        error = excinfo.value
        assert error.path == str(path)
        assert error.line == 3
        assert str(path) in str(error)
        assert ":3:" in str(error)

    def test_preference_too_few_columns_reports_line(self, tmp_path):
        path = tmp_path / "artists.dat"
        path.write_text("1\t10\n\n# note\nlonely\n")
        with pytest.raises(DatasetError) as excinfo:
            read_preference_graph(str(path))
        assert excinfo.value.line == 4

    def test_nan_weight_line_reports_path_and_line(self, tmp_path):
        path = tmp_path / "artists.dat"
        path.write_text("1\t10\t1.0\n2\t20\tnan\n")
        with pytest.raises(DatasetError) as excinfo:
            read_preference_graph(str(path))
        assert excinfo.value.path == str(path)
        assert excinfo.value.line == 2

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_non_utf8_byte_reports_its_own_line(self, tmp_path, newline):
        # Far enough into the file that a chunked text decoder would fail
        # while an earlier line is still being parsed.
        lines = [b"%d\t%d" % (i, i + 1) for i in range(2000)]
        lines[1500] = b"1500\t\xff1501"
        path = tmp_path / "user_friends.dat"
        path.write_bytes(newline.join(lines) + newline)
        with pytest.raises(DatasetError) as excinfo:
            read_social_graph(str(path))
        assert excinfo.value.path == str(path)
        assert excinfo.value.line == 1501
        path = tmp_path / "user_artists.dat"
        path.write_bytes(b"1\t10\n\xc3\t11\n")
        with pytest.raises(DatasetError) as excinfo:
            read_preference_graph(str(path))
        assert excinfo.value.line == 2

    def test_stream_source_has_no_path(self):
        with pytest.raises(DatasetError) as excinfo:
            read_preference_graph(io.StringIO("1\t10\tbadweight\n"))
        assert excinfo.value.path is None
        assert excinfo.value.line == 1


class TestIoRetry:
    def test_transient_social_read_retried(self, tmp_path):
        from repro.resilience import FaultPlan, FaultSpec, RetryPolicy

        path = tmp_path / "friends.dat"
        path.write_text("1\t2\n")
        policy = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0,
                             sleep=lambda _: None)
        plan = FaultPlan([FaultSpec(site="io.read_social", on_call=1)])
        with plan.installed():
            graph = read_social_graph(str(path), retry=policy)
        assert plan.calls_to("io.read_social") == 2
        assert graph.has_edge(1, 2)

    def test_malformed_content_not_retried(self, tmp_path):
        from repro.resilience import FaultPlan, RetryPolicy

        path = tmp_path / "artists.dat"
        path.write_text("1\t10\tbadweight\n")
        policy = RetryPolicy(max_attempts=5, base_delay=0.0, jitter=0.0,
                             sleep=lambda _: None)
        counter = FaultPlan()
        with counter.installed():
            with pytest.raises(DatasetError):
                read_preference_graph(str(path), retry=policy)
        assert counter.calls_to("io.read_preference") == 1
