// Fixture: an acceptor that holds its vote reply for the sync that makes
// the vote durable, but sends the vote's copy to a member's client in the
// same turn — the client could count a vote a crash then takes back.

impl Acceptor {
    fn on_accept(&mut self, ctx: &mut Context, from: NodeId, client: NodeId, value: LogEntry) {
        let accepted = self.handle_accept(self.group, self.position, self.ballot, &value);
        let held = accepted && self.persist_vote(self.group, self.position, self.ballot, &value);
        self.ack_after_sync(
            ctx,
            from,
            held,
            Msg::Paxos(PaxosMsg::AcceptReply {
                group: self.group,
                position: self.position,
                ballot: self.ballot,
                accepted,
            }),
        );
        ctx.send(
            client,
            Msg::VoteCopy {
                group: self.group,
                position: self.position,
                ballot: self.ballot,
                entry: value.txn_ids().into(),
                promotions: 0,
            },
        );
    }
}
