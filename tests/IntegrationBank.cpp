//===- tests/IntegrationBank.cpp - exceptions/attributes/inheritance ------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "ItHarness.h"
#include "it_bank.h"
#include <cstring>
#include <gtest/gtest.h>
#include <string>
#include <vector>

using namespace flick;

//===----------------------------------------------------------------------===//
// Servant state
//===----------------------------------------------------------------------===//

namespace {
int64_t Balance = 1000;
std::string Owner = "alice";
std::vector<Event> Log;
double Rate = 0.05;
} // namespace

int32_t Account__get_id_server(CORBA_Environment *_ev) { return 42; }

char *Account__get_owner_server(CORBA_Environment *_ev) {
  return strdup(Owner.c_str());
}

void Account__set_owner_server(const char *value, CORBA_Environment *_ev) {
  Owner = value;
}

Money *Account_balance_server(CORBA_Environment *_ev) {
  auto *M = static_cast<Money *>(malloc(sizeof(Money)));
  M->kind = USD;
  M->amount = Balance;
  return M;
}

void Account_deposit_server(const Money *m, CORBA_Environment *_ev) {
  Balance += m->amount;
  Event E{};
  E._d = 1;
  E._u.deposit = *m;
  Log.push_back(E);
}

void Account_withdraw_server(const Money *m, CORBA_Environment *_ev) {
  if (m->amount > Balance) {
    auto *Ex = static_cast<InsufficientFunds *>(
        malloc(sizeof(InsufficientFunds)));
    Ex->balance = Money{USD, Balance};
    Ex->requested = *m;
    _ev->_major = CORBA_USER_EXCEPTION;
    _ev->_exc_code = InsufficientFunds_CODE;
    _ev->_exc_value = Ex;
    return;
  }
  Balance -= m->amount;
}

void Account_history_server(EventLog **log, CORBA_Environment *_ev) {
  auto *Out = static_cast<EventLog *>(malloc(sizeof(EventLog)));
  Out->_maximum = Out->_length = static_cast<uint32_t>(Log.size());
  Out->_buffer =
      static_cast<Event *>(malloc(sizeof(Event) * (Log.size() + 1)));
  for (size_t I = 0; I != Log.size(); ++I)
    Out->_buffer[I] = Log[I];
  *log = Out;
}

void Account_rename_server(char **name, CORBA_Environment *_ev) {
  std::string NewName = std::string(*name) + "-renamed";
  // inout strings: the servant may replace the storage.
  *name = strdup(NewName.c_str());
}

// Savings inherits every Account operation; its dispatcher calls
// Savings-prefixed work functions.
int32_t Savings__get_id_server(CORBA_Environment *_ev) { return 43; }
char *Savings__get_owner_server(CORBA_Environment *_ev) {
  return strdup(Owner.c_str());
}
void Savings__set_owner_server(const char *value, CORBA_Environment *_ev) {
  Owner = value;
}
Money *Savings_balance_server(CORBA_Environment *_ev) {
  return Account_balance_server(_ev);
}
void Savings_deposit_server(const Money *m, CORBA_Environment *_ev) {
  Account_deposit_server(m, _ev);
}
void Savings_withdraw_server(const Money *m, CORBA_Environment *_ev) {
  Account_withdraw_server(m, _ev);
}
void Savings_history_server(EventLog **log, CORBA_Environment *_ev) {
  Account_history_server(log, _ev);
}
void Savings_rename_server(char **name, CORBA_Environment *_ev) {
  Account_rename_server(name, _ev);
}
double Savings_rate_server(CORBA_Environment *_ev) { return Rate; }
void Savings_set_rate_server(double r, CORBA_Environment *_ev) { Rate = r; }

//===----------------------------------------------------------------------===//
// Tests
//===----------------------------------------------------------------------===//

namespace {

class BankIt : public ::testing::Test {
protected:
  void SetUp() override {
    Balance = 1000;
    Owner = "alice";
    Log.clear();
    Rate = 0.05;
  }
  ItRig Rig{Account_dispatch};
  CORBA_Environment Ev{};
};

TEST_F(BankIt, BalanceAndDeposit) {
  Money *B = Account_balance(Rig.object(), &Ev);
  ASSERT_EQ(Ev._major, unsigned(CORBA_NO_EXCEPTION));
  EXPECT_EQ(B->amount, 1000);
  EXPECT_EQ(B->kind, USD);
  free(B);
  Money D{EUR, 250};
  Account_deposit(Rig.object(), &D, &Ev);
  B = Account_balance(Rig.object(), &Ev);
  EXPECT_EQ(B->amount, 1250);
  free(B);
}

TEST_F(BankIt, WithdrawRaisesUserException) {
  Money Req{USD, 5000};
  Account_withdraw(Rig.object(), &Req, &Ev);
  ASSERT_EQ(Ev._major, unsigned(CORBA_USER_EXCEPTION));
  ASSERT_EQ(Ev._exc_code, unsigned(InsufficientFunds_CODE));
  auto *Ex = static_cast<InsufficientFunds *>(Ev._exc_value);
  ASSERT_TRUE(Ex);
  EXPECT_EQ(Ex->balance.amount, 1000);
  EXPECT_EQ(Ex->requested.amount, 5000);
  CORBA_exception_free(&Ev);
  // Balance unchanged after the failed withdrawal.
  Money *B = Account_balance(Rig.object(), &Ev);
  EXPECT_EQ(B->amount, 1000);
  free(B);
}

TEST_F(BankIt, SuccessfulWithdrawClearsEnvironment) {
  Money Req{USD, 400};
  Account_withdraw(Rig.object(), &Req, &Ev);
  EXPECT_EQ(Ev._major, unsigned(CORBA_NO_EXCEPTION));
  Money *B = Account_balance(Rig.object(), &Ev);
  EXPECT_EQ(B->amount, 600);
  free(B);
}

TEST_F(BankIt, AttributesGetAndSet) {
  EXPECT_EQ(Account__get_id(Rig.object(), &Ev), 42);
  char *Name = Account__get_owner(Rig.object(), &Ev);
  EXPECT_STREQ(Name, "alice");
  free(Name);
  Account__set_owner(Rig.object(), "bob", &Ev);
  ASSERT_EQ(Ev._major, unsigned(CORBA_NO_EXCEPTION));
  Name = Account__get_owner(Rig.object(), &Ev);
  EXPECT_STREQ(Name, "bob");
  free(Name);
}

TEST_F(BankIt, HistoryCarriesUnionEvents) {
  Money D{USD, 5};
  Account_deposit(Rig.object(), &D, &Ev);
  D.amount = 6;
  Account_deposit(Rig.object(), &D, &Ev);
  EventLog *L = nullptr;
  Account_history(Rig.object(), &L, &Ev);
  ASSERT_EQ(Ev._major, unsigned(CORBA_NO_EXCEPTION));
  ASSERT_TRUE(L);
  ASSERT_EQ(L->_length, 2u);
  EXPECT_EQ(L->_buffer[0]._d, 1);
  EXPECT_EQ(L->_buffer[0]._u.deposit.amount, 5);
  EXPECT_EQ(L->_buffer[1]._u.deposit.amount, 6);
  free(L->_buffer);
  free(L);
}

TEST_F(BankIt, InoutStringRename) {
  // The stub replaces the pointer with a heap copy of the reply (the
  // caller's to free) and leaves the caller's own storage alone.
  char Fund[] = "fund";
  char *Name = Fund;
  Account_rename(Rig.object(), &Name, &Ev);
  ASSERT_EQ(Ev._major, unsigned(CORBA_NO_EXCEPTION));
  EXPECT_STREQ(Name, "fund-renamed");
  free(Name);
}

TEST_F(BankIt, SavingsInheritsAccountOperations) {
  ItRig SRig(Savings_dispatch);
  CORBA_Environment E2{};
  // Inherited operation through the derived dispatcher.
  Money *B = Savings_balance(SRig.object(), &E2);
  ASSERT_EQ(E2._major, unsigned(CORBA_NO_EXCEPTION));
  EXPECT_EQ(B->amount, 1000);
  free(B);
  // Derived-only operations.
  EXPECT_DOUBLE_EQ(Savings_rate(SRig.object(), &E2), 0.05);
  Savings_set_rate(SRig.object(), 0.07, &E2);
  EXPECT_DOUBLE_EQ(Savings_rate(SRig.object(), &E2), 0.07);
  // Inherited exception path still works in the derived dispatcher.
  Money Req{USD, 99999};
  Savings_withdraw(SRig.object(), &Req, &E2);
  EXPECT_EQ(E2._major, unsigned(CORBA_USER_EXCEPTION));
  CORBA_exception_free(&E2);
}

TEST_F(BankIt, UnknownOperationNameRejected) {
  // Handcraft a request with a bogus operation name: demux must answer
  // FLICK_ERR_NO_SUCH_OP without calling any servant.
  flick_buf *B = flick_client_begin(Rig.client());
  Money One{USD, 1};
  ASSERT_EQ(Account_deposit_encode_request(B, 9, &One), FLICK_OK);
  // Corrupt the operation name bytes ("deposit\0" starts after the
  // 32-byte fixed prefix and its 4-byte length word).
  std::memcpy(B->data + 36, "dep0sit", 7);
  flick_buf Req, Rep;
  flick_buf_init(&Req);
  flick_buf_init(&Rep);
  flick_buf_ensure(&Req, B->len);
  std::memcpy(flick_buf_grab(&Req, B->len), B->data, B->len);
  EXPECT_EQ(Account_dispatch(Rig.server(), &Req, &Rep),
            FLICK_ERR_NO_SUCH_OP);
  flick_buf_destroy(&Req);
  flick_buf_destroy(&Rep);
}

} // namespace
