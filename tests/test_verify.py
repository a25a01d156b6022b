import pasep.verify as verify
from pasep.polyring import ONE, Y, canonical_string


def test_check_eq_records_rendered_detail_only_on_failure(monkeypatch):
    renders = []

    def counting_render(p):
        renders.append(p)
        return canonical_string(p)

    monkeypatch.setattr(verify, "canonical_string", counting_render)
    rep = verify.VerifyReport("demo")
    rep.check_eq("equal", Y + ONE, ONE + Y)
    assert rep.checks == ["equal"] and rep.failures == [] and rep.ok
    assert renders == []

    rep.check_eq("differ", Y * Y + ONE, Y)
    assert rep.checks == ["equal", "differ"]
    assert rep.failures == [("differ", "got y^2 + 1 want y")]
    assert not rep.ok
